"""PERF — topology-structured PULL(h): sampler throughput + EXT4 record.

Two measurements land in ``BENCH_topology_pull.json`` via
``conftest.record``, gated by the record's row in
``benchmarks/check_regression.py``:

* **sampler_throughput** — raw CSR neighbor-sampling speed per graph
  family at n = 4096, h = 8: full-population ``sample()`` calls per
  second, converted to samples/sec.  The gate holds a floor so the
  broadcast gather path never regresses to a per-agent Python loop.
* **sf_vs_hybrid** — the EXT4 head-to-head (SF vs the hybrid
  push-then-pull baseline) at quick scale, one record per graph family;
  the gate requires at least three families so the comparison claim in
  docs/extensions.md stays measured.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np
import pytest

from repro.topology import create_topology

from .conftest import emit_table, record

N = 4096
H = 8
FAMILIES = ("complete", "regular", "geometric", "grid")


@pytest.mark.parametrize("family", FAMILIES)
def test_perf_sampler_throughput(family):
    """Full-population neighbor sampling, samples/sec per family."""
    sampler = create_topology(family).ensure_bound(
        N, np.random.default_rng(0)
    )
    generator = np.random.default_rng(1)
    sampler.sample(None, H, generator)  # warm-up (and shape check)

    rounds = 50
    start = time.perf_counter()
    for round_index in range(rounds):
        sampler.begin_round(round_index, generator)
        sampled = sampler.sample(None, H, generator)
    wall = time.perf_counter() - start
    assert sampled.shape == (N, H)

    case: Dict[str, object] = {
        "case": "sampler_throughput",
        "family": family,
        "n": N,
        "h": H,
        "rounds": rounds,
        "seconds": round(wall, 4),
        "samples_per_sec": round(rounds * N * H / wall, 1),
    }
    record("topology_pull", case)
    print(
        f"\n  {family}: {case['samples_per_sec']:.3g} samples/s "
        f"({rounds} rounds at n={N}, h={H})"
    )
    assert case["samples_per_sec"] > 0


def test_perf_sf_vs_hybrid():
    """EXT4 at quick scale: one sf-vs-hybrid record per graph family."""
    from repro.experiments import get_experiment

    outcome = get_experiment("EXT4").run(scale="quick", seed=0)
    emit_table(
        outcome.rows,
        title=f"{outcome.experiment_id}: {outcome.title}  [{outcome.notes}]",
        filename="bench_topology_pull.csv",
    )
    by_family: Dict[str, Dict[str, object]] = {}
    for row in outcome.rows:
        entry = by_family.setdefault(
            row["family"],
            {"case": "sf_vs_hybrid", "family": row["family"]},
        )
        entry[f"{row['protocol']}_success"] = row["success"]
        entry[f"{row['protocol']}_mean_rounds"] = row["mean_rounds"]
    for case in by_family.values():
        record("topology_pull", case)
    for check in outcome.checks:
        mark = "PASS" if check.passed else "FAIL"
        print(f"  [{mark}] {check.name}  ({check.detail})")
    assert len(by_family) >= 3
    assert outcome.passed, outcome.render()
