"""PERF — networked deployment: UDP cluster round throughput.

Boots a real 64-peer localhost UDP cluster (the ``net`` engine backend)
on a truncated SF schedule and measures how fast the round barrier
turns: full PULL rounds per second and data-plane datagrams per second.
Lands in ``BENCH_net_roundtrip.json`` via ``conftest.record``, gated by
the record's row in ``benchmarks/check_regression.py`` (rounds/sec
floor at 64 peers).

A full round here is 64 peers each pulling ``h = 8`` samples — request
and response datagrams through the noisy link — plus the coordinator's
go/done barrier, so the number summarizes codec, socket, retry and
barrier overhead in one figure.
"""

from __future__ import annotations

import time
from typing import Dict

import pytest

from repro import PopulationConfig, SourceCounts
from repro.net import ClusterRunner
from repro.protocols import SFSchedule

from .conftest import record

PEERS = 64


@pytest.fixture(scope="module")
def cluster_setup():
    config = PopulationConfig(n=PEERS, sources=SourceCounts(s0=0, s1=4), h=8)
    schedule = SFSchedule.from_config(
        config, 0.2, m=16, boost_numerator=8, subphase_factor=0.5
    )
    return config, schedule


def test_perf_cluster_roundtrip(cluster_setup):
    """Rounds/sec of a 64-peer cluster over a full truncated schedule."""
    config, schedule = cluster_setup
    trials = 2

    rounds = datagrams = 0
    start = time.perf_counter()
    for seed in range(trials):
        runner = ClusterRunner("sf", config, 0.2, schedule=schedule)
        result = runner.run(seed=seed)
        assert result.rounds_executed == schedule.total_rounds
        rounds += result.rounds_executed
        datagrams += result.datagrams["datagrams_sent"]
    wall = time.perf_counter() - start

    case: Dict[str, object] = {
        "case": "cluster_roundtrip",
        "peers": PEERS,
        "h": config.h,
        "trials": trials,
        "rounds": rounds,
        "seconds": round(wall, 3),
        "rounds_per_sec": round(rounds / wall, 2),
        "datagrams_per_sec": round(datagrams / wall, 1),
    }
    record("net_roundtrip", case)
    print(
        f"\n  {PEERS}-peer cluster: {case['rounds_per_sec']} rounds/s, "
        f"{case['datagrams_per_sec']} datagrams/s over {trials} runs"
    )
    assert case["rounds_per_sec"] > 0
