"""Shared machinery of the repo benchmark.

Seeds, span tracing by attribute patching, statistics, the run context
and the set-up probe driver.  Nothing here imports ``repro`` at module
level: :func:`use_checkout_sources` puts the checkout's ``src`` on the
path first, so the benchmark always measures the tree it sits in.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_PROBES = 9


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src`` (fail if absent)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
def seed_stream(seed: int, stream: int) -> Iterator[np.random.SeedSequence]:
    """Unbounded sequence of children spawned from one workload seed.

    ``stream`` separates independent uses of the same workload seed
    (run list, request stream, ...): child ``i`` of stream ``k`` is the
    same object on every call, so a seed fixes the inputs.
    """
    parent = np.random.SeedSequence(seed).spawn(stream + 1)[stream]
    while True:
        yield parent.spawn(1)[0]


# ----------------------------------------------------------------------
# Span tracing
# ----------------------------------------------------------------------
class Tracer:
    """Thread-aware span recorder: total time, self time, calls, counts.

    A span's self time is its duration minus the durations of the spans
    opened inside it on the same thread.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.clear()

    def clear(self) -> None:
        with self._lock:
            self.total: Dict[str, float] = defaultdict(float)
            self.self_time: Dict[str, float] = defaultdict(float)
            self.calls: Dict[str, int] = defaultdict(int)
            self.counts: Dict[str, int] = defaultdict(int)

    def take(self) -> "Tracer":
        """Snapshot of the recorded spans; the recorder starts over."""
        snapshot = Tracer.__new__(Tracer)
        with self._lock:
            snapshot.total = dict(self.total)
            snapshot.self_time = dict(self.self_time)
            snapshot.calls = dict(self.calls)
            snapshot.counts = dict(self.counts)
        self.clear()
        return snapshot

    @classmethod
    def merged(cls, snapshots: Iterable["Tracer"]) -> "Tracer":
        """One recorder holding the sums of several snapshots."""
        out = cls()
        for snapshot in snapshots:
            for field in ("total", "self_time", "calls", "counts"):
                mine = getattr(out, field)
                for key, value in getattr(snapshot, field).items():
                    mine[key] += value
        return out

    def _stack(self) -> List[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, function, args, kwargs, count=None):
        """Run ``function`` inside a span.

        ``name`` is a string or a callable mapping the result to the span
        name (e.g. hit/miss); ``count`` maps the call's arguments to a
        work count accumulated under the span name.
        """
        stack = self._stack()
        frame = [0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][0] += elapsed
        label = name(result) if callable(name) else name
        with self._lock:
            self.total[label] += elapsed
            self.self_time[label] += elapsed - frame[0]
            self.calls[label] += 1
            if count is not None:
                self.counts[label] += count(args, kwargs)
        return result

    def wrap(self, function: Callable, name, count=None) -> Callable:
        """A delegating wrapper that records one span per call."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            return self.call(name, function, args, kwargs, count)

        return traced

    def add(self, name: str, seconds: float) -> None:
        """Record a duration measured outside a span (e.g. queue wait)."""
        with self._lock:
            self.total[name] += seconds
            self.self_time[name] += seconds
            self.calls[name] += 1

    def count(self, name: str, amount: int) -> None:
        """Add ``amount`` to the work count ``name``."""
        with self._lock:
            self.counts[name] += amount


#: One patch: (owner object, attribute, factory(original) -> replacement).
Patch = Tuple[object, str, Callable[[Callable], Callable]]


def traced(tracer: Tracer, name, count=None) -> Callable[[Callable], Callable]:
    """Patch factory: a plain delegating span wrapper."""
    return lambda original: tracer.wrap(original, name, count)


@contextlib.contextmanager
def patched(patches: Iterable[Patch]) -> Iterator[None]:
    """Replace each attribute by a delegating wrapper; restore on exit.

    Attributes a class inherits are shadowed on that class and deleted
    again afterwards, so every owner ends with exactly the ``__dict__``
    entries it started with (checked before returning).
    """
    saved = []
    try:
        for owner, attribute, factory in patches:
            namespace = vars(owner)
            saved.append((owner, attribute, attribute in namespace,
                          namespace.get(attribute)))
            setattr(owner, attribute, factory(getattr(owner, attribute)))
        yield
    finally:
        for owner, attribute, had, original in reversed(saved):
            if had:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        for owner, attribute, had, original in saved:
            if vars(owner).get(attribute) is not original:
                raise RuntimeError(f"{owner!r}.{attribute} was not restored")


def engine_patches(tracer: Tracer) -> List[Patch]:
    """Spans every workload shares: ``create`` and ``engine``.

    ``create`` times ``create_engine`` wherever the workloads and the
    service call it; ``engine`` times ``EngineHandle.run`` and counts the
    agent rounds (n * rounds) and the successful runs it reports.
    """
    import repro.engines as engines
    import repro.service.server as server

    def counted_run(original):
        @functools.wraps(original)
        def run(self, *args, **kwargs):
            report = tracer.call("engine", original, (self,) + args, kwargs)
            tracer.count("agent_rounds", self.config.n * report.rounds)
            tracer.count("successes", int(bool(report.success)))
            return report
        return run

    return [
        (engines, "create_engine", traced(tracer, "create")),
        (server, "create_engine", traced(tracer, "create")),
        (engines.EngineHandle, "run", counted_run),
    ]


# ----------------------------------------------------------------------
# Statistics and reporting
# ----------------------------------------------------------------------
class Outcome:
    """What one benchmark pass attempted, what failed, what it measured."""

    #: Failure messages kept for the context line (the count is exact).
    MAX_MESSAGES = 20

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, object]] = {}
        self.details: Dict[str, Dict[str, object]] = {}
        self.bases: Dict[str, dict] = {}

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def detail(self, name: str, value: float, unit: str) -> None:
        """A workload's own stage figure, printed on the context line."""
        self.details[name] = {"value": float(value), "unit": unit}

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < self.MAX_MESSAGES:
            self.failures.append(message)

    def check(self, condition: bool, message: str) -> bool:
        """Count a failed output check; returns ``condition``."""
        if not condition:
            self.fail(message)
        return condition

    def ratio(self, name: str, numerator: float, denominator: float) -> float:
        """``numerator / denominator``, recording both bases under ``name``."""
        self.bases[name] = {"numerator": numerator, "denominator": denominator}
        return numerator / denominator


def end_to_end(outcome: Outcome, walls: List[float], window: float,
               agent_rounds: int) -> None:
    """The untraced pass's metrics, the same on every workload.

    ``walls`` are the wall times of the completed operations, ``window``
    the wall time they took together and ``agent_rounds`` the sum of
    n * rounds over the reports they returned.  The host's speed drifts
    in spells of tens of seconds, so these pool the whole run rather
    than take medians of parts of it, which would snap to one spell.
    """
    outcome.metric("op_p50_ms", median(walls) * 1e3, "ms")
    outcome.metric("ops_per_s",
                   outcome.ratio("ops_per_s", len(walls), window), "1/s")
    outcome.metric(
        "agent_rounds_per_s",
        outcome.ratio("agent_rounds_per_s", agent_rounds, window),
        "1/s",
    )


def per_layer(outcome: Outcome, spans: Tracer, ops: int, op_seconds: float,
              untraced_seconds: float) -> None:
    """The traced pass's metrics, the same on every workload.

    ``spans`` holds the :func:`engine_patches` spans of ``ops`` traced
    operations that took ``op_seconds`` in all; the same operations took
    ``untraced_seconds`` in the untraced pass.
    """
    total, calls, counts = spans.total, spans.calls, spans.counts
    create = total.get("create", 0.0)
    engine = total.get("engine", 0.0)
    runs = calls.get("engine", 0)
    agent_rounds = counts.get("agent_rounds", 0)
    outcome.metric(
        "registry.create_s",
        outcome.ratio("registry.create_s", create, calls.get("create", 0)),
        "s",
    )
    outcome.metric(
        "engine.ms_per_op",
        outcome.ratio("engine.ms_per_op", engine * 1e3, ops),
        "ms",
    )
    outcome.metric(
        "engine.ns_per_agent_round",
        outcome.ratio("engine.ns_per_agent_round", engine * 1e9, agent_rounds),
        "ns",
    )
    outcome.metric("engine.runs_per_op",
                   outcome.ratio("engine.runs_per_op", runs, ops), "count")
    outcome.metric(
        "engine.agent_rounds_per_op",
        outcome.ratio("engine.agent_rounds_per_op", agent_rounds, ops),
        "count",
    )
    outcome.metric(
        "outside_engine.ms_per_op",
        outcome.ratio("outside_engine.ms_per_op",
                      (op_seconds - create - engine) * 1e3, ops),
        "ms",
    )
    outcome.metric(
        "consensus_rate",
        outcome.ratio("consensus_rate", counts.get("successes", 0), runs),
        "ratio",
    )
    outcome.metric(
        "trace_overhead",
        outcome.ratio("trace_overhead", op_seconds, untraced_seconds) - 1.0,
        "ratio",
    )


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def report_digest(report) -> str:
    """SHA-256 of a run report's canonical JSON (for bit-identity)."""
    text = json.dumps(report.to_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def context(seed: int) -> Dict[str, object]:
    """Where and from what a result was measured."""
    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload_seed": seed,
    }


# ----------------------------------------------------------------------
# Set-up time
# ----------------------------------------------------------------------
def measure_setup(workload: str) -> List[float]:
    """Set-up seconds of :data:`SETUP_PROBES` fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        completed = subprocess.run(
            [sys.executable, str(PROBE), workload],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(json.loads(completed.stdout.splitlines()[-1])))
    return samples


@contextlib.contextmanager
def work_directory() -> Iterator[Path]:
    """A private scratch directory inside the checkout, removed on exit."""
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=str(WORK)))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
