"""Shared helpers for the benchmark/reproduction harness.

Every benchmark regenerates one experiment from DESIGN.md's index: it
prints a paper-prediction vs measured table (visible with ``pytest -s``,
and always written as CSV under ``benchmarks/results/``) and asserts the
paper's *shape* claim — scaling exponent, ordering, crossover — rather
than absolute round counts.  The PERF benchmarks instead queue
measurements with :func:`record`, which writes one ``BENCH_<name>.json``
per row of ``check_regression.RECORDS``.
"""

from __future__ import annotations

import json
import pathlib
import platform
from typing import Dict, List, Sequence

import pytest

from repro.analysis import format_table, write_csv

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Measurements queued this session, keyed by record name (a row of
#: ``check_regression.RECORDS``); each non-empty list is flushed to its
#: ``BENCH_<name>.json`` at the repo root when the session ends.
_RESULTS: Dict[str, List[Dict[str, object]]] = {}


def record(name: str, case: Dict[str, object]) -> None:
    """Queue one measurement for record ``name``'s end-of-session JSON."""
    from .check_regression import RECORDS

    if name not in RECORDS:
        raise KeyError(f"no benchmark record named {name!r}")
    _RESULTS.setdefault(name, []).append(case)


def pytest_sessionfinish(session, exitstatus):
    # The digest ties each record to the sources it measured so the
    # check_regression gate can fail on stale numbers.
    from .check_regression import RECORDS, REPO_ROOT, sources_digest

    for name, cases in _RESULTS.items():
        row = RECORDS[name]
        payload = {
            "benchmark": name,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "sources_digest": sources_digest(row.sources),
            "cases": cases,
        }
        (REPO_ROOT / row.filename).write_text(
            json.dumps(payload, indent=2) + "\n"
        )


def emit_table(
    rows: List[Dict[str, object]],
    title: str,
    filename: str,
    columns: Sequence[str] = (),
) -> None:
    """Print a reproduction table and persist it as CSV."""
    text = format_table(rows, columns=columns, title=title)
    print("\n" + text)
    write_csv(rows, RESULTS_DIR / filename, columns=columns)


@pytest.fixture
def emit():
    """Fixture handle on :func:`emit_table`."""
    return emit_table


def run_experiment_benchmark(benchmark, experiment_id: str, filename: str):
    """Standard wrapper: benchmark a full-scale experiment, emit its
    table and checks, and fail the test if any shape check failed."""
    from repro.experiments import get_experiment

    experiment = get_experiment(experiment_id)
    outcome = benchmark.pedantic(
        lambda: experiment.run(scale="full"), rounds=1, iterations=1
    )
    emit_table(
        outcome.rows,
        title=f"{outcome.experiment_id}: {outcome.title}"
        + (f"  [{outcome.notes}]" if outcome.notes else ""),
        filename=filename,
    )
    for check in outcome.checks:
        mark = "PASS" if check.passed else "FAIL"
        suffix = f"  ({check.detail})" if check.detail else ""
        print(f"  [{mark}] {check.name}{suffix}")
    assert outcome.passed, outcome.render()
    return outcome
