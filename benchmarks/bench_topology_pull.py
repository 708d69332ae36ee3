"""PERF — topology-structured PULL(h): sampler throughput, EXT4 record, regular bind.

Three measurements land in ``BENCH_topology_pull.json`` via
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
* **regular_bind** — binding a random 8-regular graph at n = 2*10^4
  (what every ``topology="regular"`` run pays first): the numpy/stdlib
  pairing frozen straight into CSR against ``nx.random_regular_graph``
  plus the per-agent freeze it replaced, median and IQR over 5 binds
  each.  Both build the same CSR; the gate holds the speedup.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np
import pytest

from repro.rng import derive_seed
from repro.topology import RandomRegularTopology, create_topology

from .conftest import emit_table, record

N = 4096
H = 8
FAMILIES = ("complete", "regular", "geometric", "grid")
BIND_N = 20_000
BIND_DEGREE = 8
BIND_REPEATS = 5


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


def _networkx_bind(n: int, degree: int, seed: int):
    """The former bind: networkx's generator, then a per-agent freeze."""
    import networkx as nx

    graph = nx.random_regular_graph(
        degree, n, seed=derive_seed(np.random.default_rng(seed))
    )
    degrees = np.empty(n, dtype=np.int64)
    chunks = []
    for agent in range(n):
        block = np.asarray(sorted(graph.neighbors(agent)), dtype=np.int64)
        degrees[agent] = block.size
        chunks.append(block)
    return np.concatenate(chunks), degrees


def _bind(n: int, degree: int, seed: int):
    sampler = RandomRegularTopology(degree=degree).bind(n, seed)
    return sampler._indices, sampler._degrees


def _timed(build, seeds):
    walls, results = [], []
    for seed in seeds:
        start = time.perf_counter()
        results.append(build(BIND_N, BIND_DEGREE, seed))
        walls.append(time.perf_counter() - start)
    return walls, results


def test_perf_regular_bind():
    """Random-regular bind: numpy/stdlib pairing vs networkx + loop."""
    seeds = range(BIND_REPEATS)
    _bind(BIND_N, BIND_DEGREE, BIND_REPEATS)  # warm-up, untimed
    new, new_csr = _timed(_bind, seeds)
    old, old_csr = _timed(_networkx_bind, seeds)
    for ours, theirs in zip(new_csr, old_csr):
        assert all(np.array_equal(a, b) for a, b in zip(ours, theirs))

    def spread(walls):
        q1, q2, q3 = np.percentile(walls, [25, 50, 75])
        return round(float(q2), 4), round(float(q3 - q1), 4)

    bind_s, bind_iqr = spread(new)
    networkx_s, networkx_iqr = spread(old)
    case: Dict[str, object] = {
        "case": "regular_bind",
        "n": BIND_N,
        "degree": BIND_DEGREE,
        "repeats": BIND_REPEATS,
        "bind_s": bind_s,
        "bind_iqr_s": bind_iqr,
        "networkx_bind_s": networkx_s,
        "networkx_bind_iqr_s": networkx_iqr,
        "speedup_vs_networkx": round(networkx_s / bind_s, 2),
    }
    record("topology_pull", case)
    print(
        f"\n  regular bind n={BIND_N} d={BIND_DEGREE}: {bind_s:.3f} s "
        f"(IQR {bind_iqr:.3f}) vs networkx {networkx_s:.3f} s "
        f"(IQR {networkx_iqr:.3f}): {case['speedup_vs_networkx']}x"
    )
