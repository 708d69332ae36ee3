"""Workload ``service``: the run service under a closed loop of one client.

``repro.service.ServiceThread`` with a fresh cache directory, driven by
one ``ServiceClient`` thread that waits for each reply before sending
its next request (``wait=true``), so the loop is closed.  The server
runs in this process, so a second client thread adds no load that the
interpreter lock lets run in parallel: on a 2-core box it only made the
median latency swing by up to 2x between runs, measuring thread
scheduling rather than the service.

The request stream is cut into passes of 324 requests.  A pass asks
each of the six pool configurations 54 times: six seeded keys whose
request counts follow Zipf(1) over their ranks (20, 10, 7, 5, 4, 3) and
five unseeded requests, which bypass the cache.  So every pass makes
36 cache misses, 258 cache hits and 30 uncached runs.  Seeds of
different passes never collide, so each pass starts from a cold cache
for its keys and the hit ratio does not drift with the number of
passes a faster program completes.  Each key belongs to one client,
which would keep every hit and miss deterministic with more clients.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import (
    Outcome, Tracer, end_to_end, engine_patches, median, patched, per_layer,
    seed_stream, traced, work_directory,
)

#: (engine, protocol, n, trials)
POOL = (
    ("fast", "sf", 4096, 1),
    ("fast", "sf", 16384, 1),
    ("fast", "ssf", 16384, 1),
    ("count", "sf", 10**6, 1),
    ("count", "ssf", 10**6, 1),
    ("fast", "sf", 1024, 8),
)
#: Requests per seeded key of one configuration in one pass: Zipf(1)
#: over six ranks, 49 requests.  With 5 unseeded requests per
#: configuration, about 80% of the requests are hits, so the median
#: latency sits well inside the hit path.
MULTIPLICITY = (20, 10, 7, 5, 4, 3)
UNSEEDED = 5
CLIENTS = 1
#: Seeds of pass p are p * SEED_BLOCK + [0, SEED_BLOCK).
SEED_BLOCK = 2**20
MAX_PASSES = 256


class Request:
    """One request of the stream and the client that sends it."""

    __slots__ = ("config", "seed", "client")

    def __init__(self, config: int, seed: Optional[int], client: int) -> None:
        self.config = config
        self.seed = seed
        self.client = client

    def body(self, pool=POOL) -> Dict[str, object]:
        engine, protocol, n, trials = pool[self.config]
        body: Dict[str, object] = {
            "engine": engine, "protocol": protocol, "n": n, "wait": True,
        }
        if trials != 1:
            body["trials"] = trials
        if self.seed is not None:
            body["seed"] = self.seed
        return body

    @property
    def key(self) -> Tuple[int, int]:
        return (self.config, self.seed)


def pass_stream(seeds: np.random.SeedSequence, index: int,
                pool=POOL) -> List[Request]:
    """The shuffled requests of pass ``index``, drawn from ``seeds``."""
    rng = np.random.default_rng(seeds)
    requests: List[Request] = []
    for config in range(len(pool)):
        offsets = rng.choice(SEED_BLOCK, size=len(MULTIPLICITY), replace=False)
        for rank, (offset, count) in enumerate(zip(offsets, MULTIPLICITY)):
            request = Request(config, index * SEED_BLOCK + int(offset),
                              (config + rank) % CLIENTS)
            requests.extend([request] * count)
        for j in range(UNSEEDED):
            requests.append(Request(config, None, j % CLIENTS))
    return [requests[i] for i in rng.permutation(len(requests))]


def request_streams(seed: int, passes: int = MAX_PASSES, pool=POOL):
    """Pass streams ``0..passes-1`` of one workload seed."""
    seeds = seed_stream(seed, 1)
    return [pass_stream(next(seeds), index, pool) for index in range(passes)]


def expected_cache_counts(streams, passes: List[int]) -> Dict[str, int]:
    """Hits, misses and stores a fresh cache must report.

    ``passes[k]`` is the number of passes client ``k`` completed.
    """
    counts = {"hits": 0, "misses": 0, "stores": 0}
    for client, completed in enumerate(passes):
        for stream in streams[:completed]:
            seen = set()
            for request in stream:
                if request.client != client or request.seed is None:
                    continue
                if request.key in seen:
                    counts["hits"] += 1
                else:
                    seen.add(request.key)
                    counts["misses"] += 1
                    counts["stores"] += 1
    return counts


class Record:
    """What one request returned, kept small.

    A miss or an uncached run keeps its result envelope; a hit keeps only
    whether it equals its miss apart from ``cached``.
    """

    __slots__ = ("client", "pass_index", "request", "latency", "cached",
                 "result", "matches_miss", "error", "size")

    def __init__(self, client, pass_index, request, latency) -> None:
        self.client = client
        self.pass_index = pass_index
        self.request = request
        self.latency = latency
        self.cached = None
        self.result = None
        self.matches_miss = None
        self.error = None
        self.size = None


class Driver:
    """Two closed-loop clients replaying the stream against one server."""

    def __init__(self, url: str, streams, pool=POOL, measure_size=False):
        self.url = url
        self.streams = streams
        self.pool = pool
        self.measure_size = measure_size
        self.records: List[List[Record]] = [[] for _ in range(CLIENTS)]
        self.passes = [0] * CLIENTS
        #: Wall time of each completed pass, per client.
        self.pass_walls: List[List[float]] = [[] for _ in range(CLIENTS)]

    def _client(self, index: int, deadline: float, passes: Optional[int]):
        from repro.service import ServiceClient

        client = ServiceClient(self.url, timeout=120.0)
        records = self.records[index]
        for pass_index, stream in enumerate(self.streams):
            if passes is None and time.perf_counter() >= deadline:
                break
            if passes is not None and pass_index >= passes:
                break
            first: Dict[tuple, dict] = {}
            begin = time.perf_counter()
            for request in stream:
                if request.client != index:
                    continue
                start = time.perf_counter()
                try:
                    response = client.run(**request.body(self.pool))
                    error = None
                except Exception as exc:  # counted as a failed request
                    error = f"{type(exc).__name__}: {exc}"
                record = Record(index, pass_index, request,
                                time.perf_counter() - start)
                records.append(record)
                if error is not None:
                    record.error = error
                    continue
                if self.measure_size:
                    record.size = len(json.dumps(response)) + 1
                _keep(record, response, first)
            self.pass_walls[index].append(time.perf_counter() - begin)
            self.passes[index] = pass_index + 1

    def drive(self, seconds: float = 0.0, passes: Optional[List[int]] = None):
        """Run until ``seconds`` pass (whole passes) or replay ``passes``."""
        start = time.perf_counter()
        threads = [
            threading.Thread(
                target=self._client,
                args=(k, start + seconds, None if passes is None else passes[k]),
                name=f"perfbench-client-{k}",
            )
            for k in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def all_records(self) -> List[Record]:
        return [record for records in self.records for record in records]


def _keep(record: Record, response: dict, first: Dict[tuple, dict]) -> None:
    """Keep a miss's or an uncached result; compare a hit to its miss."""
    result = response.get("result")
    if response.get("status") != "done" or not isinstance(result, dict):
        record.error = f"job {response.get('status')}: {response.get('error')}"
        return
    record.cached = result.get("cached")
    if record.request.seed is None or record.request.key not in first:
        record.result = result
        if record.request.seed is not None:
            first[record.request.key] = result
        return
    record.matches_miss = (_without_cached(result)
                           == _without_cached(first[record.request.key]))


def _without_cached(envelope: dict) -> dict:
    return {k: v for k, v in envelope.items() if k != "cached"}


# ----------------------------------------------------------------------
# Output checks (outside the timed window)
# ----------------------------------------------------------------------
class Checker:
    """Structure checks and in-process references for served results."""

    def __init__(self, pool=POOL) -> None:
        self.pool = pool
        self._limits: Dict[int, int] = {}
        self._references: Dict[tuple, object] = {}

    def _handle(self, config: int):
        from repro.engines import create_engine
        from repro.model.config import PopulationConfig
        from repro.types import SourceCounts

        engine, protocol, n, _ = self.pool[config]
        population = PopulationConfig(n=n, sources=SourceCounts(s0=0, s1=1), h=n)
        return create_engine(engine, protocol, population, 0.2)

    def _limit(self, config: int) -> int:
        """SF horizon or SSF round cap of one configuration."""
        if config not in self._limits:
            schedule = self._handle(config).schedule
            protocol = self.pool[config][1]
            self._limits[config] = (
                schedule.total_rounds if protocol == "sf"
                else 20 * schedule.epoch_rounds
            )
        return self._limits[config]

    def well_formed(self, config: int, result: dict) -> Optional[str]:
        """``None`` if ``result`` is a well-formed envelope, else why not."""
        try:
            return self._well_formed(config, result)
        except (KeyError, TypeError, ValueError) as exc:
            return f"unreadable result: {type(exc).__name__}: {exc}"

    def _well_formed(self, config: int, result: dict) -> Optional[str]:
        from repro.results import report_from_dict

        _, protocol, n, trials = self.pool[config]
        limit = self._limit(config)
        if trials != 1:
            stats = result.get("stats") or {}
            values = stats.get("values", [])
            if (stats.get("trials") != trials or stats.get("failed_trials")
                    or stats.get("incomplete")
                    or len(values) != stats.get("successes")
                    or any(v != limit for v in values)):
                return f"malformed trial stats {stats}"
            return None
        report = report_from_dict(result["report"])
        rounds = report.rounds
        if protocol == "sf" and rounds != limit:
            return f"{rounds} rounds, expected the horizon {limit}"
        if protocol == "ssf" and not (
                rounds <= limit and (report.success or rounds == limit)):
            return f"{rounds} rounds with cap {limit}"
        counts = getattr(report, "final_opinion_counts", None)
        if counts is not None:
            counts = np.asarray(counts)
            if counts.min() < 0 or counts.sum() != n:
                return "final_opinion_counts do not sum to n"
            return None
        final = np.asarray(report.final_opinions)
        if final.shape != (n,) or not np.isin(final, (0, 1)).all():
            return "malformed final_opinions"
        return None

    def reference(self, config: int, seed: int):
        """What an in-process run at ``seed`` returns, as JSON."""
        key = (config, seed)
        if key not in self._references:
            from repro.rng import spawn_generators

            trials = self.pool[config][3]
            handle = self._handle(config)
            if trials == 1:
                report = handle.run(rng=np.random.default_rng(seed))
                value = json.loads(json.dumps(report.to_dict()))
            else:
                reports = [handle.run(rng=g)
                           for g in spawn_generators(seed, trials)]
                value = {
                    "trials": trials,
                    "successes": sum(bool(r.success) for r in reports),
                    "values": [float(r.rounds) for r in reports if r.success],
                }
            self._references[key] = value
        return self._references[key]

    def agent_rounds(self, config: int, result: dict) -> int:
        """n * rounds summed over the runs behind one served result."""
        from repro.results import report_from_dict

        _, _, n, trials = self.pool[config]
        if trials != 1:
            # SF trials all run the fixed horizon (checked by well_formed).
            return n * trials * self._limit(config)
        return n * report_from_dict(result["report"]).rounds

    def matches_reference(self, config: int, seed: int, result: dict) -> bool:
        expected = self.reference(config, seed)
        if self.pool[config][3] == 1:
            return result.get("report") == expected
        stats = result.get("stats") or {}
        return all(stats.get(k) == v for k, v in expected.items())


def check_records(outcome: Outcome, checker: Checker, driver: Driver) -> None:
    """Count every failed request or failed output check."""
    for records in driver.records:
        seen = set()
        for record in records:
            request = record.request
            label = f"service {driver.pool[request.config]} seed={request.seed}"
            if record.error is not None:
                outcome.fail(f"{label}: {record.error}")
                continue
            key = (record.pass_index, request.key)
            expect_hit = request.seed is not None and key in seen
            seen.add(key)
            if not outcome.check(record.cached is expect_hit,
                                 f"{label}: cached={record.cached}, "
                                 f"expected {expect_hit}"):
                continue
            if expect_hit:
                outcome.check(record.matches_miss,
                              f"{label}: hit differs from its stored miss")
                continue
            problem = checker.well_formed(request.config, record.result)
            if not outcome.check(problem is None, f"{label}: {problem}"):
                continue
            if request.seed is not None:
                outcome.check(
                    checker.matches_reference(request.config, request.seed,
                                              record.result),
                    f"{label}: served miss differs from the in-process run")


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
def _warm_up(url: str) -> None:
    from repro.service import ServiceClient

    client = ServiceClient(url, timeout=120.0)
    client.health()
    for config in range(len(POOL)):
        client.run(**Request(config, None, 0).body())


def _serve(work, name):
    from repro.service import ServiceThread

    return ServiceThread(cache_dir=str(work / name))


@contextlib.contextmanager
def first_handle():
    """A fresh server that has answered ``GET /health`` (computing the
    code-version digest): what ``setup_s`` waits for."""
    from repro.service import ServiceClient

    with work_directory() as work, _serve(work, "setup") as server:
        ServiceClient(server.url).health()
        yield server


def _session(work, name, streams, seconds=0.0, passes=None, patches=(),
             measure_size=False):
    """Drive one fresh server; return the driver and the cache counters.

    The server (and its job store) is gone when this returns.
    """
    with _serve(work, name) as server:
        _warm_up(server.url)
        driver = Driver(server.url, streams, measure_size=measure_size)
        with patched(patches):
            driver.drive(seconds, passes)
        return driver, server.service.cache.stats()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    streams = request_streams(seed)
    checker = Checker()
    with work_directory() as work:
        untraced, cache = _session(work, "untraced", streams, seconds)
        outcome.attempted += len(untraced.all_records())
        check_records(outcome, checker, untraced)
        _check_cache(outcome, cache, streams, untraced.passes)
        if trace:
            _traced_pass(outcome, checker, streams, untraced, work)
            return outcome

    served = [r for r in untraced.all_records() if r.error is None]
    end_to_end(outcome, [r.latency for r in served],
               sum(sum(walls) for walls in untraced.pass_walls),
               _served_agent_rounds(checker, served))
    return outcome


def _served_agent_rounds(checker: Checker, served: List[Record]) -> int:
    """n * rounds over every served result; a hit counts as its miss."""
    rounds: Dict[tuple, int] = {}
    total = 0
    for record in served:
        key = (record.client, record.pass_index, record.request.key)
        if record.result is not None:
            rounds[key] = checker.agent_rounds(record.request.config,
                                               record.result)
        total += rounds.get(key, 0)
    return total


def _check_cache(outcome, cache, streams, passes) -> None:
    expected = expected_cache_counts(streams, passes)
    for name, count in expected.items():
        outcome.check(cache[name] == count,
                      f"service cache {name}={cache[name]}, expected {count}")


def _patches(tracer: Tracer):
    """The service's stages, at the calls the server makes into them."""
    import repro.service.server as server
    from repro.service.cache import ResultCache

    submitted: Dict[str, float] = {}

    def clock_submit(original):
        def submit(self, kind, request):
            job = original(self, kind, request)
            submitted[job.id] = time.perf_counter()
            return job
        return submit

    def clock_queue(original):
        def execute_job(self, job):
            tracer.add("queue_wait", time.perf_counter() - submitted.pop(job.id))
            return original(self, job)
        return execute_job

    def hit_or_miss(envelope):
        return "cache_get_miss" if envelope is None else "cache_get_hit"

    return engine_patches(tracer) + [
        (server.SpreadingService, "submit",
         lambda original: clock_submit(tracer.wrap(original, "submit"))),
        (server.SpreadingService, "execute_job",
         lambda original: clock_queue(tracer.wrap(original, "execute"))),
        (server, "normalize_request", traced(tracer, "parse")),
        (server, "canonical_key", traced(tracer, "cache_key")),
        (ResultCache, "get", traced(tracer, hit_or_miss)),
        (ResultCache, "put", traced(tracer, "cache_put")),
        (server, "repeat_trials", traced(tracer, "trials")),
    ]


def _traced_pass(outcome, checker, streams, untraced: Driver, work) -> None:
    tracer = Tracer()
    replay, cache = _session(work, "traced", streams, passes=untraced.passes,
                             patches=_patches(tracer), measure_size=True)
    spans = tracer.take()
    records = replay.all_records()
    outcome.attempted += len(records)
    check_records(outcome, checker, replay)
    _check_cache(outcome, cache, streams, replay.passes)
    _compare_passes(outcome, untraced, replay)

    served = [r for r in records if r.error is None]
    per_layer(outcome, spans, len(served), sum(r.latency for r in served),
              sum(r.latency for r in untraced.all_records() if r.error is None))
    _stage_details(outcome, spans, served, cache)


def _stage_details(outcome, spans: Tracer, served: List[Record], cache) -> None:
    """Per-request means of each service stage, and the cache counters."""
    count = len(served)
    total = spans.total
    per_request = {
        "parse": total.get("parse", 0.0),
        "cache_key": total.get("cache_key", 0.0),
        "cache_get_hit": total.get("cache_get_hit", 0.0),
        "cache_get_miss": total.get("cache_get_miss", 0.0),
        "cache_put": total.get("cache_put", 0.0),
        "engine": spans.self_time.get("engine", 0.0),
        "trials": spans.self_time.get("trials", 0.0),
        "execute_self": spans.self_time.get("execute", 0.0),
        "queue_wait": total.get("queue_wait", 0.0),
        "http_self": (
            sum(r.latency for r in served)
            - (total.get("submit", 0.0) - spans.self_time.get("submit", 0.0))
            - total.get("queue_wait", 0.0)
            - total.get("execute", 0.0)
        ),
    }
    for name, seconds in per_request.items():
        outcome.detail(
            f"service.{name}_s",
            outcome.ratio(f"service.{name}_s", seconds, count),
            "s",
        )
    for name in ("hits", "misses", "stores"):
        outcome.detail(f"service.cache_{name}", cache[name], "count")
    outcome.detail(
        "service.cache_hit_ratio",
        outcome.ratio("service.cache_hit_ratio", cache["hits"],
                      cache["hits"] + cache["misses"]),
        "ratio",
    )
    outcome.detail("service.response_bytes_p50",
                   median([r.size for r in served]), "bytes")


def _compare_passes(outcome: Outcome, untraced: Driver, replay: Driver) -> None:
    """Traced results must equal the untraced ones request by request."""
    for before, after in zip(untraced.records, replay.records):
        outcome.check(len(before) == len(after),
                      "traced service pass sent a different number of requests")
        for one, two in zip(before, after):
            if one.request.seed is None or one.error or two.error:
                continue
            outcome.check(
                one.result == two.result,
                f"traced service result for {one.request.key} differs from "
                f"the untraced one",
            )
