"""Benchmark regression gate: thresholds + staleness for BENCH_*.json.

The repo commits machine-readable benchmark records at its root, one
``BENCH_<name>.json`` per row of :data:`RECORDS`.  Each row says which
module regenerates the record (``benchmarks/bench_<name>.py``), which
source files it measures, and which claims its numbers must keep
backing.  This module is the CI gate over them:

* **Thresholds** — each :class:`Gate` holds the picked cases of a
  record to a bound, so the docs' performance claims stay measured:
  the batched exact engine is never slower than the serial loop at
  n = 1024, the count-level engine keeps its per-round margin at
  n = 10^6, the run service's cache pays for itself, and so on.
* **Staleness** — each record stores a digest of its row's source set.
  When one of those files changes, the digest stops matching and the
  gate fails until that record is re-measured and committed — numbers
  in the repo can never silently describe code that no longer exists.

Every record is checked in one run; a missing, unreadable or stale
record fails with one line naming the file and its refresh command.
``benchmarks/conftest.py`` writes the records from the same table.

Run it directly::

    PYTHONPATH=src python -m benchmarks.check_regression
"""

from __future__ import annotations

import hashlib
import json
import operator
import pathlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

from .bench_telemetry_overhead import OVERHEAD_LIMIT_PCT

REPO_ROOT = pathlib.Path(__file__).parent.parent

#: Selector value matching any case whose field is present and not null.
PRESENT = object()

_COMPARE = {">=": operator.ge, "<=": operator.le}


class Gate(NamedTuple):
    """One claim a record's numbers must keep backing.

    ``select`` picks the gated cases by field value (:data:`PRESENT`
    matches any non-null value).  ``metric`` names a per-case field, or
    ``"distinct:<field>"`` to count that field's distinct values over
    all picked cases.  Every measured value must satisfy
    ``value <compare> bound``; ``reason`` is the claim a failure breaks.
    """

    select: Mapping[str, object]
    metric: str
    compare: str
    bound: float
    reason: str


@dataclass(frozen=True)
class Record:
    """One committed ``BENCH_<name>.json`` and what it must satisfy.

    ``sources`` lists repo-relative paths and globs (a glob contributes
    its sorted matches, so a new module under it invalidates the record
    without a table edit); editing any of them makes the record stale.
    """

    name: str
    sources: Tuple[str, ...]
    gates: Tuple[Gate, ...]

    @property
    def filename(self) -> str:
        return f"BENCH_{self.name}.json"

    @property
    def refresh(self) -> str:
        """The command that regenerates this record."""
        return (
            f"PYTHONPATH=src python -m pytest benchmarks/bench_{self.name}.py "
            f"-q --benchmark-disable"
        )


#: Engine sources measured by the engine-throughput and count-engine
#: records.
ENGINE_SOURCES = (
    "src/repro/model/engine.py",
    "src/repro/model/batched_engine.py",
    "src/repro/model/count_engine.py",
    "src/repro/noise/matrix.py",
    "src/repro/protocols/sf_fast.py",
    "src/repro/protocols/sf_count.py",
    "src/repro/protocols/ssf_fast.py",
    "src/repro/protocols/ssf_count.py",
    "src/repro/theory/tails.py",
    "src/repro/analysis/mean_field.py",
)

RECORDS: Dict[str, Record] = {
    record.name: record
    for record in (
        Record("engine_throughput", ENGINE_SOURCES, (
            # A regression fixed once and kept fixed.
            Gate({"case": "batched_vs_serial", "n": 1024}, "speedup", ">=",
                 1.0, "the batched engine is never slower than the serial "
                 "loop"),
        )),
        Record("count_engine", ENGINE_SOURCES, (
            # Batched cost extrapolated from n = 10^4; in practice >10^3x.
            Gate({"case": "count_vs_batched_per_round", "n": 1_000_000},
                 "speedup", ">=", 10.0, "the count-level hot path keeps "
                 "its asymptotic advantage over the batched engine"),
            Gate({"case": "count_sf_full_run", "n": 100_000_000},
                 "peak_bytes", "<=", 64 * 1024 * 1024, "the count engine "
                 "is O(|Sigma|) in memory"),
        )),
        # The HTTP front-end, cache, job ledger, and the registry seam the
        # service routes every run through.
        Record("service_load", (
            "src/repro/service/server.py",
            "src/repro/service/cache.py",
            "src/repro/service/jobs.py",
            "src/repro/service/client.py",
            "src/repro/engines.py",
        ), (
            Gate({"case": "run_cache_hit"}, "speedup", ">=", 10.0,
                 "a cache hit beats cold recomputation by 10x"),
            Gate({"case": "health_throughput"}, "requests_per_sec", ">=",
                 25.0, "the front-end's fixed per-request cost stays low"),
        )),
        Record("net_roundtrip", ("src/repro/net/*.py",), (
            # A full PULL round is 64 peers x h samples, request/response
            # datagrams + barrier.  Measured ~15 rounds/s on a dev box;
            # 1.0 keeps the gate robust to slow CI.
            Gate({"case": "cluster_roundtrip", "peers": 64},
                 "rounds_per_sec", ">=", 1.0, "the UDP round barrier keeps "
                 "a 64-peer cluster progressing"),
        )),
        Record("topology_pull", (
            "src/repro/topology/*.py",
            "src/repro/model/structured.py",
        ), (
            # The vectorized gather measures ~1e7 samples/s on a dev box;
            # 1e5 still catches a fallback to Python loops.
            Gate({"case": "sampler_throughput"}, "samples_per_sec", ">=",
                 1e5, "graph sampling stays on the vectorized gather path"),
            Gate({"case": "sf_vs_hybrid", "sf_success": PRESENT,
                  "hybrid_success": PRESENT}, "distinct:family", ">=", 3,
                 "the EXT4 comparison covers at least three graph "
                 "families"),
            # Measured 3.1-3.7x on a 2-core dev box.
            Gate({"case": "regular_bind"}, "speedup_vs_networkx", ">=", 2.0,
                 "the random-regular bind stays off networkx's graph "
                 "build and the per-agent freeze"),
        )),
        # The search package plus the sequential-testing module its SPRT
        # savings claim depends on.
        Record("adversary_search", (
            "src/repro/adversary_search/*.py",
            "src/repro/analysis/sequential.py",
        ), (
            # Measured ~2-3x; 1.3 keeps the gate robust to unlucky draws.
            Gate({"case": "sprt_trial_savings"}, "savings_ratio", ">=", 1.3,
                 "SPRT screening beats fixed-size testing on the mixed "
                 "candidate pool"),
            # Measured hundreds/s on a dev box; lenient for slow CI.
            Gate({"case": "search_throughput"}, "evals_per_sec", ">=", 1.0,
                 "the search stays on the vectorized engine path"),
        )),
        Record("telemetry_overhead", (
            "src/repro/telemetry/*.py",
            "src/repro/model/batched_engine.py",
        ), (
            Gate({"case": "batched_engine_disabled"}, "overhead_pct", "<=",
                 OVERHEAD_LIMIT_PCT, "disabled telemetry is near-free on "
                 "the batched engine"),
        )),
    )
}


def source_files(sources: Sequence[str]) -> List[str]:
    """Expand a source set in order; each glob gives its sorted matches."""
    files: List[str] = []
    for pattern in sources:
        if any(char in pattern for char in "*?["):
            files.extend(sorted(
                str(path.relative_to(REPO_ROOT))
                for path in REPO_ROOT.glob(pattern)
            ))
        else:
            files.append(pattern)
    return files


def sources_digest(sources: Sequence[str]) -> str:
    """Stable digest of a source set (content, not mtimes)."""
    hasher = hashlib.sha256()
    for relative in source_files(sources):
        path = REPO_ROOT / relative
        hasher.update(relative.encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes() if path.exists() else b"<missing>")
        hasher.update(b"\0")
    return hasher.hexdigest()


def selected(gate: Gate, cases: Sequence[Mapping[str, object]]) -> list:
    """The cases ``gate`` picks out of a record."""
    return [
        case
        for case in cases
        if all(
            case.get(field) is not None if value is PRESENT
            else case.get(field) == value
            for field, value in gate.select.items()
        )
    ]


def _describe(select: Mapping[str, object], case: Mapping[str, object]):
    """A case's kind plus its selector fields and string-valued fields."""
    fields = [
        f"{field}={value}"
        for field, value in case.items()
        if field != "case" and (field in select or isinstance(value, str))
    ]
    return " ".join([str(case.get("case"))] + fields)


def _measurements(gate: Gate, cases) -> List[Tuple[str, object]]:
    """``(label, value)`` pairs that ``gate`` holds to its bound."""
    picked = selected(gate, cases)
    if gate.metric.startswith("distinct:") and picked:
        field = gate.metric.split(":", 1)[1]
        values = sorted({str(case.get(field)) for case in picked})
        return [(f"{gate.select['case']} over {field} {values}", len(values))]
    return [(_describe(gate.select, case), case.get(gate.metric))
            for case in picked]


def check_record(
    record: Record, records_dir: pathlib.Path = REPO_ROOT, verbose=True
) -> List[str]:
    """Check one record's file, digest and gates; return its failures."""
    refresh = f"refresh with `{record.refresh}` and commit the record"
    try:
        payload = json.loads((records_dir / record.filename).read_text())
    except FileNotFoundError:
        return [f"{record.filename}: missing — {refresh}"]
    except ValueError as exc:
        return [f"{record.filename}: unreadable JSON ({exc}) — {refresh}"]

    errors = []
    recorded = str(payload.get("sources_digest"))
    current = sources_digest(record.sources)
    if recorded != current:
        errors.append(
            f"{record.filename}: stale — its sources "
            f"({', '.join(record.sources)}) changed since it was measured "
            f"(digest {recorded[:12]}… != {current[:12]}…); {refresh}"
        )
    for gate in record.gates:
        measured = _measurements(gate, payload.get("cases", []))
        if not measured:
            selector = " ".join(
                f"{field}={'*' if value is PRESENT else value}"
                for field, value in gate.select.items()
            )
            errors.append(
                f"{record.filename}: no case with {selector} — "
                f"unmeasured claim: {gate.reason}"
            )
        for label, value in measured:
            if value is None or not _COMPARE[gate.compare](
                float(value), gate.bound
            ):
                errors.append(
                    f"{record.filename}: {label}: {gate.metric} {value} "
                    f"not {gate.compare} {gate.bound:g} — broken claim: "
                    f"{gate.reason}"
                )
            elif verbose:
                print(
                    f"  PASS  {record.filename}: {label}: {gate.metric} "
                    f"{float(value):.4g} {gate.compare} {gate.bound:g}"
                )
    return errors


def check(records_dir: pathlib.Path = REPO_ROOT, verbose=True) -> List[str]:
    """Run every record's gates; return the list of failures (empty = pass)."""
    errors: List[str] = []
    for record in RECORDS.values():
        errors.extend(check_record(record, records_dir, verbose))
    return errors


def main() -> int:
    print("benchmark regression gate")
    errors = check()
    for error in errors:
        print(f"  FAIL  {error}")
    print("gate: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
