"""PERF — adaptive adversary search: SPRT savings + search throughput.

Two measurements land in ``BENCH_adversary_search.json`` via
``conftest.record``, gated by the record's row in
``benchmarks/check_regression.py``:

* **sprt_trial_savings** — the point of SPRT-gating every candidate:
  sequential trials actually spent screening a mixed benign/damaging
  candidate pool versus the fixed-size budget the same screen would
  cost without early stopping.  The gate holds a savings floor so the
  sequential fast path never silently degrades to fixed-size testing.
* **search_throughput** — end-to-end ``run_search`` cost on a small SF
  cell: candidate evaluations per second and total protocol trials.
  The gate holds a lenient floor (slow CI) that still catches an
  accidental switch off the vectorized engines.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.adversary_search import (
    CandidateEvaluator,
    FaultConfigSpace,
    SearchSettings,
    run_search,
)
from repro.model.config import PopulationConfig
from repro.types import SourceCounts

from .conftest import emit_table, record

CONFIG = PopulationConfig(n=96, sources=SourceCounts(0, 4), h=6)
SETTINGS = SearchSettings(
    num_candidates=4,
    rungs=2,
    base_trials=8,
    refine_steps=3,
    cert_trials=40,
)


def test_perf_sprt_trial_savings():
    """Sequential screening of a mixed pool vs the fixed-size budget."""
    space = FaultConfigSpace(
        "sf", 0.2, families=("byzantine", "misspec"), max_fraction=0.3
    )
    evaluator = CandidateEvaluator(space, CONFIG)
    # Mixed pool: benign misspecifications (SPRT rejects in a handful
    # of trials) and damaging Byzantine mobs (accepted almost as fast).
    pool = space.boundary_candidates("misspec", 0.04) + (
        space.boundary_candidates("byzantine", 0.15)
    )
    fixed_budget = SETTINGS.base_trials * (2 ** (SETTINGS.rungs - 1))
    sequential = 0
    for index, candidate in enumerate(pool):
        evaluation = evaluator.evaluate(
            candidate,
            stage="bench",
            seed=1000 + index,
            p0=SETTINGS.p0,
            p1=SETTINGS.p1,
            alpha=SETTINGS.alpha,
            beta=SETTINGS.beta,
            max_trials=fixed_budget,
        )
        sequential += evaluation.trials
    fixed = fixed_budget * len(pool)
    case: Dict[str, object] = {
        "case": "sprt_trial_savings",
        "candidates": len(pool),
        "fixed_trials": fixed,
        "sequential_trials": sequential,
        "savings_ratio": round(fixed / sequential, 2),
    }
    record("adversary_search", case)
    print(
        f"\n  SPRT screen: {sequential} trials vs {fixed} fixed "
        f"({case['savings_ratio']}x savings over {len(pool)} candidates)"
    )
    assert case["savings_ratio"] > 1.0


def test_perf_search_throughput():
    """End-to-end run_search cost on one SF byzantine+misspec sweep."""
    start = time.perf_counter()
    frontier = run_search(
        "sf",
        CONFIG,
        assumed_delta=0.2,
        budgets={"byzantine": [0.15], "misspec": [0.04]},
        seed=7,
        settings=SETTINGS,
    )
    wall = time.perf_counter() - start
    evaluations = sum(p.evaluations for p in frontier.points)
    trials = frontier.rounds_executed
    case: Dict[str, object] = {
        "case": "search_throughput",
        "n": CONFIG.n,
        "cells": len(frontier.points),
        "evaluations": evaluations,
        "trials": trials,
        "seconds": round(wall, 4),
        "evals_per_sec": round(evaluations / wall, 2),
        "trials_per_sec": round(trials / wall, 1),
    }
    record("adversary_search", case)
    emit_table(
        frontier.rows(),
        title=(
            f"adversary search: {evaluations} evaluations, {trials} "
            f"trials in {wall:.2f}s"
        ),
        filename="bench_adversary_search.csv",
    )
    assert frontier.converged
    assert case["evals_per_sec"] > 0
