"""PERF — run-service load: throughput, tail latency, cache speedup.

Drives a live in-process :class:`repro.service.ServiceThread` over real
HTTP sockets and lands three measurements in ``BENCH_service_load.json``
via ``conftest.record``, gated by the record's row in
``benchmarks/check_regression.py``:

* ``health_throughput`` — sequential ``GET /health`` round-trips:
  requests/sec plus p50/p99 latency.  The floor guards the asyncio
  front-end's fixed per-request cost (parse, route, serialize).
* ``run_cache_hit`` — one cold seeded serial run, then repeated replays
  of the identical request served from the content-addressed cache.
  The gate requires the cache hit to beat cold recomputation by >= 10x
  (in practice the gap is orders of magnitude for large configs; the
  small config here keeps CI honest *and* fast).
* ``run_concurrent`` — a thread pool of clients issuing ``wait=true``
  seeded runs with distinct seeds (every request misses the cache and
  shards through the executor): end-to-end requests/sec and p99.
"""

from __future__ import annotations

import concurrent.futures
import time
from statistics import median
from typing import Dict, List

import pytest

from repro.service import ServiceClient, ServiceThread

from .conftest import record

RUN_REQUEST = {
    "engine": "serial",
    "protocol": "sf",
    "n": 96,
    "s0": 1,
    "s1": 3,
    "h": 4,
    "delta": 0.2,
    "seed": 17,
    "wait": True,
}


def _percentile(samples: List[float], q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("bench-service-cache")
    with ServiceThread(cache_dir=cache_dir) as thread:
        client = ServiceClient(thread.url)
        client.health()  # warm the connection path / lazy imports
        yield client


def _timed(call, repeats: int) -> List[float]:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return samples


def test_perf_health_throughput(service):
    """Fixed per-request service overhead via the cheapest endpoint."""
    repeats = 200
    samples = _timed(service.health, repeats)
    total = sum(samples)
    case: Dict[str, object] = {
        "case": "health_throughput",
        "requests": repeats,
        "requests_per_sec": round(repeats / total, 1),
        "p50_ms": round(_percentile(samples, 0.50) * 1e3, 3),
        "p99_ms": round(_percentile(samples, 0.99) * 1e3, 3),
    }
    record("service_load", case)
    print(
        f"\n  GET /health: {case['requests_per_sec']} req/s "
        f"(p50 {case['p50_ms']} ms, p99 {case['p99_ms']} ms)"
    )
    assert case["requests_per_sec"] > 0


def test_perf_cache_hit_speedup(service):
    """Cold seeded run vs content-addressed cache replay (>= 10x)."""
    cold_start = time.perf_counter()
    first = service.run(**RUN_REQUEST)
    cold_seconds = time.perf_counter() - cold_start
    assert first["status"] == "done"
    assert first["result"]["cached"] is False

    hits = _timed(lambda: service.run(**RUN_REQUEST), 30)
    replay = service.run(**RUN_REQUEST)
    assert replay["result"]["cached"] is True

    hit_median = median(hits)
    case: Dict[str, object] = {
        "case": "run_cache_hit",
        "n": RUN_REQUEST["n"],
        "engine": RUN_REQUEST["engine"],
        "cold_seconds": round(cold_seconds, 5),
        "hit_p50_ms": round(hit_median * 1e3, 3),
        "hit_p99_ms": round(_percentile(hits, 0.99) * 1e3, 3),
        "speedup": round(cold_seconds / hit_median, 1),
    }
    record("service_load", case)
    print(
        f"\n  cache hit: cold {cold_seconds * 1e3:.1f} ms -> hit p50 "
        f"{case['hit_p50_ms']} ms ({case['speedup']}x)"
    )
    assert case["speedup"] >= 1.0


def test_perf_concurrent_runs(service):
    """End-to-end sharded throughput: distinct-seed runs, all misses."""
    requests = 24
    workers = 8

    def one(seed: int) -> float:
        request = dict(RUN_REQUEST, n=48, seed=10_000 + seed)
        start = time.perf_counter()
        reply = service.run(**request)
        assert reply["status"] == "done"
        return time.perf_counter() - start

    wall_start = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        samples = list(pool.map(one, range(requests)))
    wall = time.perf_counter() - wall_start

    case: Dict[str, object] = {
        "case": "run_concurrent",
        "requests": requests,
        "client_workers": workers,
        "requests_per_sec": round(requests / wall, 2),
        "p50_ms": round(_percentile(samples, 0.50) * 1e3, 2),
        "p99_ms": round(_percentile(samples, 0.99) * 1e3, 2),
    }
    record("service_load", case)
    print(
        f"\n  concurrent runs: {case['requests_per_sec']} req/s over "
        f"{workers} clients (p99 {case['p99_ms']} ms)"
    )
    assert case["requests_per_sec"] > 0
