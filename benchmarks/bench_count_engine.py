"""PERF — count-level engine: O(|Sigma|) transitions at any population.

The tentpole measurement behind :mod:`repro.model.count_engine`: a full
SF execution collapses to O(num_subphases) arithmetic regardless of
``n``, so n = 10^8 runs in the same milliseconds as n = 10^3 and with
O(|Sigma|) memory.  Four measurements land in
``BENCH_count_engine.json`` via ``conftest.record`` and are gated by
the record's row in ``benchmarks/check_regression.py``:

* full count-SF runs across n in {10^3, 10^4, 10^6, 10^8}, with
  ``tracemalloc`` peaks proving the memory claim;
* per-round cost head-to-head against the batched exact engine at
  n = 10^6 (batched measured at n = 10^4 and extrapolated linearly —
  its per-round cost is Theta(n*h));
* full-run head-to-head against the fast per-agent engine at n = 10^6;
* alphabet dependence (SF's |Sigma| = 2 vs SSF's |Sigma| = 4) and the
  deterministic mean-field engine alongside.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np
import pytest

from repro.analysis import MeanFieldEngine
from repro.model import BatchedPullEngine, Population, PopulationConfig
from repro.noise import NoiseMatrix
from repro.protocols import (
    BatchedSourceFilter,
    CountSelfStabilizingSourceFilter,
    CountSourceFilter,
    FastSourceFilter,
    SFSchedule,
)
from repro.types import SourceCounts

from .conftest import record

DELTA = 0.2


def _count_sf_config(n: int) -> PopulationConfig:
    return PopulationConfig(n=n, sources=SourceCounts(0, 4), h=16)


@pytest.mark.parametrize("n", [1_000, 10_000, 1_000_000, 100_000_000])
def test_perf_count_sf_full_run(n):
    """Full count-SF runs: wall time flat in n, memory O(|Sigma|)."""
    config = _count_sf_config(n)
    engine = CountSourceFilter(config, DELTA)
    engine.run(rng=0)  # warm the lazy imports / numpy dispatch

    tracemalloc.start()
    start = time.perf_counter()
    result = CountSourceFilter(config, DELTA).run(rng=1)
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    assert result.converged
    rounds = result.rounds_executed
    record(
        "count_engine",
        {
            "case": "count_sf_full_run",
            "n": n,
            "h": config.h,
            "delta": DELTA,
            "rounds": rounds,
            "seconds": round(elapsed, 5),
            "rounds_per_sec": round(rounds / elapsed, 1),
            "peak_bytes": int(peak),
        }
    )
    print(
        f"\n  count SF n={n:.0e}: {rounds} rounds in {elapsed * 1e3:.2f} ms "
        f"({rounds / elapsed:,.0f} rounds/s), peak {peak / 1e3:.1f} KB"
    )


def test_perf_count_vs_batched_per_round():
    """Count per-round cost at n=1e6 vs the batched exact engine.

    The batched exact engine draws Theta(n*h) variates per round, so its
    per-round cost is measured at n = 10^4 and extrapolated linearly to
    n = 10^6 (running it there directly would take minutes and gigabytes
    — which is the point).  The gate requires >= 10x; in practice the
    collapse buys >10^3x.
    """
    n_small, n_large, h = 10_000, 1_000_000, 16
    rounds = 20
    config = PopulationConfig(n=n_small, sources=SourceCounts(0, 4), h=h)
    population = Population(config, rng=np.random.default_rng(0))
    schedule = SFSchedule.from_config(config, DELTA, m=rounds * h)
    engine = BatchedPullEngine(population, NoiseMatrix.uniform(DELTA, 2))
    start = time.perf_counter()
    engine.run(
        BatchedSourceFilter(schedule), max_rounds=rounds, replicas=1, rng=0
    )
    batched_per_round_small = (time.perf_counter() - start) / rounds
    batched_per_round = batched_per_round_small * (n_large / n_small)

    large = _count_sf_config(n_large)
    CountSourceFilter(large, DELTA).run(rng=0)  # warm-up
    start = time.perf_counter()
    result = CountSourceFilter(large, DELTA).run(rng=1)
    count_per_round = (time.perf_counter() - start) / result.rounds_executed

    speedup = batched_per_round / count_per_round
    record(
        "count_engine",
        {
            "case": "count_vs_batched_per_round",
            "n": n_large,
            "h": h,
            "batched_measured_at_n": n_small,
            "batched_seconds_per_round": round(batched_per_round, 6),
            "count_seconds_per_round": round(count_per_round, 9),
            "speedup": round(speedup, 1),
            "extrapolated": True,
        }
    )
    print(
        f"\n  per-round at n=1e6: batched {batched_per_round * 1e3:.2f} ms "
        f"(extrapolated), count {count_per_round * 1e6:.2f} us "
        f"({speedup:,.0f}x)"
    )
    assert speedup >= 10.0


def test_perf_count_vs_fast_full_run():
    """Full-run head-to-head at n=1e6: count vs the fast per-agent SF."""
    n = 1_000_000
    config = _count_sf_config(n)

    fast = FastSourceFilter(config, DELTA)
    start = time.perf_counter()
    fast_result = fast.run(rng=0)
    fast_s = time.perf_counter() - start

    CountSourceFilter(config, DELTA).run(rng=0)  # warm-up
    start = time.perf_counter()
    count_result = CountSourceFilter(config, DELTA).run(rng=1)
    count_s = time.perf_counter() - start

    assert fast_result.converged and count_result.converged
    record(
        "count_engine",
        {
            "case": "count_vs_fast_full_run",
            "n": n,
            "h": config.h,
            "fast_seconds": round(fast_s, 4),
            "count_seconds": round(count_s, 5),
            "speedup": round(fast_s / count_s, 1),
        }
    )
    print(
        f"\n  full run n=1e6: fast {fast_s:.3f}s, count {count_s * 1e3:.2f} ms "
        f"({fast_s / count_s:,.0f}x)"
    )


@pytest.mark.parametrize(
    "label,alphabet", [("sf", 2), ("ssf", 4)]
)
def test_perf_count_alphabet_dependence(label, alphabet):
    """Per-transition cost vs alphabet size: SF (|Sigma|=2) vs SSF (=4)."""
    n = 1_000_000
    if label == "sf":
        runner = CountSourceFilter(_count_sf_config(n), DELTA)
        result = runner.run(rng=0)  # warm-up
        start = time.perf_counter()
        result = CountSourceFilter(_count_sf_config(n), DELTA).run(rng=1)
        elapsed = time.perf_counter() - start
        transitions = len(runner._stages)
    else:
        config = PopulationConfig(n=n, sources=SourceCounts(0, 4), h=16)
        CountSelfStabilizingSourceFilter(config, 0.05).run(rng=0)  # warm-up
        protocol = CountSelfStabilizingSourceFilter(config, 0.05)
        start = time.perf_counter()
        result = protocol.run(rng=1)
        elapsed = time.perf_counter() - start
        transitions = max(
            result.rounds_executed // protocol.schedule.epoch_rounds, 1
        )
    per_transition = elapsed / transitions
    record(
        "count_engine",
        {
            "case": "count_alphabet_dependence",
            "protocol": label,
            "alphabet": alphabet,
            "n": n,
            "transitions": transitions,
            "seconds": round(elapsed, 5),
            "seconds_per_transition": round(per_transition, 8),
            "converged": bool(result.converged),
        }
    )
    print(
        f"\n  count {label} (|Sigma|={alphabet}) n=1e6: {transitions} "
        f"transitions, {per_transition * 1e6:.1f} us each"
    )


@pytest.mark.parametrize("n", [1_000_000, 100_000_000])
def test_perf_mean_field_full_run(n):
    """The deterministic mean-field engine alongside the count engine."""
    config = _count_sf_config(n)
    MeanFieldEngine(config, DELTA).run()  # warm-up
    start = time.perf_counter()
    result = MeanFieldEngine(config, DELTA).run()
    elapsed = time.perf_counter() - start
    assert result.converged
    record(
        "count_engine",
        {
            "case": "mean_field_full_run",
            "n": n,
            "h": config.h,
            "rounds": result.total_rounds,
            "seconds": round(elapsed, 5),
        }
    )
    print(
        f"\n  mean-field n={n:.0e}: {result.total_rounds} rounds in "
        f"{elapsed * 1e3:.2f} ms (deterministic)"
    )
