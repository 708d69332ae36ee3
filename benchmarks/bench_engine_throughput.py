"""PERF — engine throughput: exact agent-level vs vectorized simulation.

Not a paper experiment, but the measurement that justifies the
engine hierarchy: the exact engine costs O(n*h) per round, the batched
exact engine amortizes the per-round dispatch overhead over R replicas,
and the vectorized engines cost O(n) per *phase*.  These
micro-benchmarks record all tiers so regressions in the hot paths are
caught; the batched-vs-serial comparisons are additionally written to
``BENCH_engine_throughput.json`` at the repo root via ``conftest.record``
and gated by the record's row in ``benchmarks/check_regression.py``.
"""

import time

import numpy as np
import pytest

from repro.analysis import repeat_trials, run_trials
from repro.model import BatchedPullEngine, Population, PopulationConfig, PullEngine
from repro.noise import NoiseMatrix
from repro.protocols import (
    BatchedSourceFilter,
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
    SFSchedule,
    SourceFilterProtocol,
)
from repro.types import SourceCounts

from .conftest import record


@pytest.mark.parametrize("n,h", [(256, 4), (1024, 16)])
def test_perf_exact_engine_round(benchmark, n, h):
    """Cost of 10 exact-engine rounds (display, sample, corrupt, receive)."""
    config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=h)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=10 * h)
    engine = PullEngine(population, noise)

    def ten_rounds():
        protocol = SourceFilterProtocol(schedule)
        return engine.run(protocol, max_rounds=10, rng=np.random.default_rng(1))

    result = benchmark(ten_rounds)
    assert result.rounds_executed == 10


@pytest.mark.parametrize("n", [1024, 8192])
def test_perf_fast_sf_full_run(benchmark, n):
    """Cost of a complete SF execution at h = n (phase-at-a-time)."""
    config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=n)
    engine = FastSourceFilter(config, 0.2)
    result = benchmark(lambda: engine.run(rng=0))
    assert result.converged


@pytest.mark.parametrize("n", [1024, 4096])
def test_perf_fast_ssf_full_run(benchmark, n):
    """Cost of a complete SSF execution at h = n (gap-batched)."""
    config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=n)

    def run():
        return FastSelfStabilizingSourceFilter(config, 0.1).run(rng=0)

    result = benchmark(run)
    assert result.converged


def test_perf_noise_corrupt_million(benchmark):
    """Channel throughput: corrupting 1M binary messages."""
    noise = NoiseMatrix.uniform(0.2, 2)
    rng = np.random.default_rng(0)
    messages = rng.integers(0, 2, size=1_000_000)
    out = benchmark(lambda: noise.corrupt(messages, rng))
    assert out.shape == messages.shape


# ----------------------------------------------------------------------
# Batched-replica engine vs a serial trial loop.
# ----------------------------------------------------------------------

TRIALS = 64
ROUNDS = 60


def _serial_sweep(population, noise, schedule, trials, rounds, seed):
    engine = PullEngine(population, noise)
    results = []
    root = np.random.SeedSequence(seed)
    for child in root.spawn(trials):
        protocol = SourceFilterProtocol(schedule)
        results.append(
            engine.run(
                protocol, max_rounds=rounds, rng=np.random.default_rng(child)
            )
        )
    return results


def _batched_sweep(population, noise, schedule, trials, rounds, seed, mode):
    engine = BatchedPullEngine(population, noise)
    return engine.run(
        BatchedSourceFilter(schedule),
        max_rounds=rounds,
        replicas=trials,
        rng=seed,
        rng_mode=mode,
    )


@pytest.mark.parametrize(
    "n,h,mode",
    [
        (64, 2, "shared"),
        (64, 2, "spawn"),
        (128, 4, "shared"),
        (1024, 16, "shared"),
    ],
)
def test_perf_batched_vs_serial_sweep(n, h, mode):
    """A 64-trial exact-engine sweep, serial loop vs batched replicas.

    Batching amortizes the per-round numpy dispatch overhead, so the
    speedup concentrates at small n*h (the exact engine's cross-
    validation regime) and fades once rounds are element-bound — both
    ends are recorded to BENCH_engine_throughput.json.
    """
    config = PopulationConfig(n=n, sources=SourceCounts(1, 3), h=h)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=10 * h)

    start = time.perf_counter()
    serial = _serial_sweep(population, noise, schedule, TRIALS, ROUNDS, seed=5)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = _batched_sweep(
        population, noise, schedule, TRIALS, ROUNDS, seed=5, mode=mode
    )
    batched_s = time.perf_counter() - start

    assert len(serial) == len(batched) == TRIALS
    if mode == "spawn":
        # The spawn discipline is bit-identical to the serial loop.
        for s, b in zip(serial, batched):
            assert np.array_equal(s.final_opinions, b.final_opinions)

    speedup = serial_s / batched_s
    record(
        "engine_throughput",
        {
            "case": "batched_vs_serial",
            "n": n,
            "h": h,
            "rng_mode": mode,
            "trials": TRIALS,
            "rounds": ROUNDS,
            "serial_seconds": round(serial_s, 4),
            "batched_seconds": round(batched_s, 4),
            "speedup": round(speedup, 2),
        }
    )
    print(
        f"\n  n={n} h={h} mode={mode}: serial {serial_s:.3f}s, "
        f"batched {batched_s:.3f}s, speedup {speedup:.1f}x"
    )


class _BenchTrial:
    """Picklable trial for the workers benchmark."""

    def __init__(self, config, delta):
        self.config = config
        self.delta = delta

    def __call__(self, rng):
        return FastSourceFilter(self.config, self.delta).run(rng)


@pytest.mark.parametrize("workers", [None, 2])
def test_perf_trial_runner_workers(workers):
    """repeat_trials serial vs process pool (same statistics either way).

    On a single-core runner the pool adds overhead rather than speed;
    the measurement is recorded so multi-core machines can see the
    scaling and single-core ones the honest cost.
    """
    config = PopulationConfig(n=256, sources=SourceCounts(1, 3), h=16)
    trial = _BenchTrial(config, 0.2)

    start = time.perf_counter()
    stats = repeat_trials(trial, trials=8, seed=3, workers=workers)
    elapsed = time.perf_counter() - start

    assert stats.trials == 8
    record(
        "engine_throughput",
        {
            "case": "trial_runner",
            "workers": workers or 1,
            "trials": 8,
            "seconds": round(elapsed, 4),
            "successes": stats.successes,
        }
    )
    print(f"\n  workers={workers or 1}: {elapsed:.3f}s for 8 trials")


def test_perf_run_trials_batch_backend():
    """run_trials' run_batch backend vs the per-trial loop (fast SF)."""
    config = PopulationConfig(n=512, sources=SourceCounts(1, 3), h=32)
    engine = FastSourceFilter(config, 0.2)

    start = time.perf_counter()
    batched = run_trials(engine, 64, seed=11)
    batched_s = time.perf_counter() - start

    start = time.perf_counter()
    serial = run_trials(engine, 64, seed=11, batch=False)
    serial_s = time.perf_counter() - start

    assert batched.trials == serial.trials == 64
    record(
        "engine_throughput",
        {
            "case": "run_trials_fast_sf",
            "n": 512,
            "h": 32,
            "trials": 64,
            "serial_seconds": round(serial_s, 4),
            "batched_seconds": round(batched_s, 4),
            "speedup": round(serial_s / batched_s, 2),
        }
    )
    print(
        f"\n  fast-SF run_trials: serial {serial_s:.3f}s, "
        f"batched {batched_s:.3f}s ({serial_s / batched_s:.1f}x)"
    )
