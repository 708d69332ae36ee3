"""Workload ``exact``: the serial agent-level engine, stage by stage.

Registry engine ``serial`` (``repro.model.engine.PullEngine``) at n=1024,
h=16.  One operation is a cycle of two runs: SF (binary uniform noise
0.2, the full schedule horizon), then SSF (4-symbol uniform noise 0.1,
capped at 1000 rounds).  The four round stages of the model -- display,
sample, noise channel, update -- do almost all the work, and a change to
the binary channel that costs the 4-symbol path shows up.
"""

from __future__ import annotations

import contextlib
import time
from typing import List

import numpy as np

from harness import (
    Outcome, Tracer, end_to_end, engine_patches, median, patched, per_layer,
    report_digest, seed_stream, traced,
)

N, H = 1024, 16
SSF_CAP = 1000
#: (protocol, uniform noise level, round cap; None = schedule horizon)
KINDS = (("sf", 0.2, None), ("ssf", 0.1, SSF_CAP))
STAGES = ("display", "sample", "channel", "update")


class Run:
    """One planned run and what it produced."""

    def __init__(self, kind, seeds):
        self.kind = kind
        self.protocol, self.delta, self.cap = kind
        self.seeds = seeds
        self.report = None
        self.wall = 0.0
        self.spans = None

    def execute(self, config, tracer=None):
        from repro.engines import create_engine

        rng = np.random.default_rng(self.seeds)
        start = time.perf_counter()
        handle = create_engine("serial", self.protocol, config, self.delta)
        self.report = handle.run(self.cap, rng=rng)
        self.wall = time.perf_counter() - start
        if tracer is not None:
            self.spans = tracer.take()


def _config():
    from repro.model.config import PopulationConfig
    from repro.types import SourceCounts

    return PopulationConfig(n=N, sources=SourceCounts(s0=0, s1=1), h=H)


@contextlib.contextmanager
def first_handle():
    """The workload's first engine handle (what ``setup_s`` waits for)."""
    from repro.engines import create_engine

    yield create_engine("serial", "sf", _config(), KINDS[0][1])


def _patches(tracer: Tracer):
    """The four round stages, as seen from the engine's call sites."""
    import repro.model.engine as engine_module
    from repro.noise import NoiseMatrix
    from repro.protocols import (
        SelfStabilizingSourceFilterProtocol,
        SourceFilterProtocol,
    )

    def messages(args, kwargs):
        return int(np.size(args[1]))

    patches = engine_patches(tracer) + [
        (engine_module, "sample_indices", traced(tracer, "sample")),
        (NoiseMatrix, "corrupt", traced(tracer, "channel", messages)),
    ]
    for protocol in (SourceFilterProtocol, SelfStabilizingSourceFilterProtocol):
        patches.append((protocol, "displays", traced(tracer, "display")))
        patches.append((protocol, "receive", traced(tracer, "update")))
    return patches


def _warm_up():
    from repro.engines import create_engine
    from repro.model.config import PopulationConfig
    from repro.types import SourceCounts

    small = PopulationConfig(n=64, sources=SourceCounts(s0=0, s1=1), h=4)
    for protocol, delta, _ in KINDS:
        create_engine("serial", protocol, small, delta).run(50, rng=0)


def _check(outcome: Outcome, run: Run, horizon: int) -> None:
    report = run.report
    expected = horizon if run.cap is None else run.cap
    outcome.check(report.rounds == expected,
                  f"exact {run.protocol}: {report.rounds} rounds, "
                  f"expected {expected}")
    final = np.asarray(report.final_opinions)
    outcome.check(final.shape == (N,) and bool(np.isin(final, (0, 1)).all()),
                  f"exact {run.protocol}: malformed final_opinions")


def _execute(outcome: Outcome, cycle: List[Run], config, tracer=None) -> bool:
    """Run one cycle; ``False`` (failure counted) if a run raised."""
    for planned in cycle:
        outcome.attempted += 1
        try:
            planned.execute(config, tracer)
        except Exception as exc:  # counted, reported, not raised
            outcome.fail(f"exact {planned.protocol}: {type(exc).__name__}: {exc}")
            return False
    return True


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.protocols import SFSchedule

    outcome = Outcome()
    config = _config()
    horizon = SFSchedule.from_config(config, KINDS[0][1]).total_rounds
    _warm_up()

    cycles: List[List[Run]] = []
    seeds = seed_stream(seed, 0)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not cycles:
        cycle = [Run(kind, next(seeds)) for kind in KINDS]
        if _execute(outcome, cycle, config):
            cycles.append(cycle)
    for cycle in cycles:
        for finished in cycle:
            _check(outcome, finished, horizon)

    if not trace:
        walls = [sum(r.wall for r in cycle) for cycle in cycles]
        end_to_end(outcome, walls, sum(walls), sum(
            N * r.report.rounds for cycle in cycles for r in cycle))
        return outcome
    _traced_pass(outcome, config, cycles, horizon)
    return outcome


def _traced_pass(outcome: Outcome, config, untraced: List[List[Run]],
                 horizon: int) -> None:
    tracer = Tracer()
    pairs = []
    with patched(_patches(tracer)):
        for cycle in untraced:
            replay = [Run(r.kind, r.seeds) for r in cycle]
            if _execute(outcome, replay, config, tracer):
                pairs.append((cycle, replay))
    for cycle, replay in pairs:
        for original, again in zip(cycle, replay):
            _check(outcome, again, horizon)
            outcome.check(report_digest(again.report)
                          == report_digest(original.report),
                          f"traced exact {again.protocol} report differs "
                          f"from the untraced one")

    runs = [r for _, replay in pairs for r in replay]
    per_layer(
        outcome,
        Tracer.merged(r.spans for r in runs),
        len(pairs),
        sum(r.wall for r in runs),
        sum(r.wall for cycle, _ in pairs for r in cycle),
    )
    for protocol, _, _ in KINDS:
        _stage_details(outcome, protocol,
                       [r for r in runs if r.protocol == protocol])


def _stage_details(outcome: Outcome, protocol: str, mine: List[Run]) -> None:
    """Per-run medians and shares of the four round stages."""
    prefix = f"exact.{protocol}"
    engine_total = sum(r.spans.total["engine"] for r in mine)
    parts = dict(
        {stage: [r.spans.total.get(stage, 0.0) for r in mine]
         for stage in STAGES},
        loop_self=[r.spans.self_time["engine"] for r in mine],
    )
    for part, values in parts.items():
        outcome.detail(f"{prefix}.{part}_s", median(values), "s")
        outcome.detail(
            f"{prefix}.{part}_share",
            outcome.ratio(f"{prefix}.{part}_share", sum(values), engine_total),
            "ratio",
        )
    observations = [r.spans.counts.get("channel", 0) for r in mine]
    for r, count in zip(mine, observations):
        outcome.check(count == N * H * r.report.rounds,
                      f"{prefix}: {count} observations through the "
                      f"channel, expected n*h*rounds")
    outcome.detail(f"{prefix}.observations", median(observations), "count")
    for stage in ("channel", "sample"):
        outcome.detail(
            f"{prefix}.{stage}_ns_per_obs",
            outcome.ratio(f"{prefix}.{stage}_ns_per_obs",
                          sum(parts[stage]) * 1e9, sum(observations)),
            "ns",
        )
