"""Workload ``fast``: the phase-batched engine on all four kernel paths.

Registry engine ``fast`` (``repro.protocols.sf_fast``/``ssf_fast``):

* ``sf``         SF on the complete graph, n=10^5 (``run``)
* ``sf_graph``   SF on a random 8-regular graph, n=2*10^4
  (``_run_structured``; the graph is drawn from each run's generator)
* ``sf_faulted`` SF with 5% of the agents crashed out of the sampling
  pool, n=10^5 (``_run_faulted``)
* ``ssf``        SSF on the complete graph, n=10^6, noise 0.1

One operation is a cycle through the four paths in this order; cycles
repeat until the time is up.  Nothing here calls ``sample_indices`` or
``NoiseMatrix.corrupt``, so a change to the agent-level channel should
not move these numbers.
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List

import numpy as np

from harness import (
    Outcome, Tracer, end_to_end, engine_patches, median, patched, per_layer,
    report_digest, seed_stream, traced,
)

#: path -> (protocol, n, uniform noise level, engine keyword arguments)
PATHS = {
    "sf": ("sf", 10**5, 0.2, {}),
    "sf_graph": ("sf", 2 * 10**4, 0.2, {"topology": "regular"}),
    "sf_faulted": ("sf", 10**5, 0.2, {"fault": 0.05}),
    "ssf": ("ssf", 10**6, 0.1, {}),
}
#: Telemetry phase timers read per path: metric suffix -> timer name.
PHASES = {
    "sf": {"weak": "sf.phase01_weak", "boost": "sf.boosting"},
    "ssf": {"run": "ssf.run"},
}


class CountingGenerator(np.random.Generator):
    """A ``Generator`` that counts the per-agent variates it draws.

    It draws exactly what a plain ``Generator`` on the same bit
    generator draws; a binomial variate is one agent draw, a multinomial
    row is one agent draw.
    """

    def __init__(self, bit_generator) -> None:
        super().__init__(bit_generator)
        self.agent_draws = 0

    def binomial(self, n, p, size=None):
        out = super().binomial(n, p, size)
        self.agent_draws += int(np.size(out))
        return out

    def multinomial(self, n, pvals, size=None):
        out = super().multinomial(n, pvals, size)
        self.agent_draws += int(np.size(out)) // len(pvals)
        return out


class Run:
    """One planned run of one path and what it produced."""

    def __init__(self, path: str, seeds, n: int = None) -> None:
        self.path = path
        self.protocol, self.n, self.delta, options = PATHS[path]
        self.n = self.n if n is None else n
        self.options = options
        self.seeds = seeds
        self.report = None
        self.handle = None
        self.wall = 0.0
        self.spans = None
        self.phases: Dict[str, float] = {}
        self.agent_draws = 0

    def _engine_kwargs(self) -> dict:
        kwargs = dict(self.options)
        fraction = kwargs.pop("fault", None)
        if fraction is not None:
            from repro.faults import CrashFault

            kwargs["fault_model"] = CrashFault(fraction=fraction, mode="exclude")
        return kwargs

    def execute(self, tracer: Tracer = None) -> None:
        """Create the engine and run it; with a tracer, also read the
        phase timers and count the agent draws."""
        from repro.engines import create_engine
        from repro.telemetry import MemorySink, Telemetry

        config = _config(self.n)
        kwargs = self._engine_kwargs()
        rng, telemetry = np.random.default_rng(self.seeds), None
        if tracer is not None:
            rng = CountingGenerator(np.random.PCG64(self.seeds))
            sink = MemorySink()
            telemetry = Telemetry([sink])
        start = time.perf_counter()
        self.handle = create_engine(
            "fast", self.protocol, config, self.delta, **kwargs
        )
        self.report = self.handle.run(rng=rng, telemetry=telemetry)
        self.wall = time.perf_counter() - start
        if tracer is None:
            return
        self.spans = tracer.take()
        self.agent_draws = rng.agent_draws
        for suffix, timer in PHASES[self.protocol].items():
            self.phases[suffix] = sum(
                sum(durations) for key, durations in sink.phases.items()
                if key.split("{")[0] == timer
            )


def _config(n: int):
    from repro.model.config import PopulationConfig
    from repro.types import SourceCounts

    return PopulationConfig(n=n, sources=SourceCounts(s0=0, s1=1), h=n)


@contextlib.contextmanager
def first_handle():
    """The workload's first engine handle (what ``setup_s`` waits for)."""
    from repro.engines import create_engine

    protocol, n, delta, _ = PATHS["sf"]
    yield create_engine("fast", protocol, _config(n), delta)


def _patches(tracer: Tracer):
    """Graph binding, neighbour counting and the fault model's methods."""
    from repro.faults import CrashFault
    from repro.topology.graphs import RandomRegularTopology

    patches = engine_patches(tracer) + [
        (RandomRegularTopology, "bind", traced(tracer, "bind")),
        (RandomRegularTopology, "neighbor_symbol_counts",
         traced(tracer, "neighbor_counts")),
    ]
    for method in ("reset", "transform_displays", "visible_agents",
                   "evaluation_mask", "effective_uniform_delta",
                   "transition_rounds", "channel"):
        if callable(getattr(CrashFault, method, None)):
            patches.append((CrashFault, method, traced(tracer, "fault")))
    return patches


def _warm_up() -> None:
    for path in PATHS:
        Run(path, np.random.SeedSequence(0), n=2048).execute()


def _check(outcome: Outcome, run: Run) -> None:
    report, schedule = run.report, run.handle.schedule
    if run.protocol == "sf":
        outcome.check(report.rounds == schedule.total_rounds,
                      f"fast {run.path}: {report.rounds} rounds, expected "
                      f"the horizon {schedule.total_rounds}")
    else:
        cap = 20 * schedule.epoch_rounds
        outcome.check(report.rounds <= cap
                      and (report.success or report.rounds == cap),
                      f"fast {run.path}: {report.rounds} rounds with cap {cap}")
    final = np.asarray(report.final_opinions)
    outcome.check(final.shape == (run.n,) and bool(np.isin(final, (0, 1)).all()),
                  f"fast {run.path}: malformed final_opinions")


def _execute(outcome: Outcome, cycle: List[Run], tracer=None) -> bool:
    """Run one cycle; ``False`` (failure counted) if a run raised."""
    for planned in cycle:
        outcome.attempted += 1
        try:
            planned.execute(tracer)
        except Exception as exc:  # counted, reported, not raised
            outcome.fail(f"fast {planned.path}: {type(exc).__name__}: {exc}")
            return False
    return True


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    _warm_up()
    cycles: List[List[Run]] = []
    seeds = seed_stream(seed, 0)
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not cycles:
        cycle = [Run(path, next(seeds)) for path in PATHS]
        if _execute(outcome, cycle):
            cycles.append(cycle)
    for cycle in cycles:
        for finished in cycle:
            _check(outcome, finished)

    if not trace:
        walls = [sum(r.wall for r in cycle) for cycle in cycles]
        end_to_end(outcome, walls, sum(walls), sum(
            r.n * r.report.rounds for cycle in cycles for r in cycle))
        return outcome
    _traced_pass(outcome, cycles)
    return outcome


def _traced_pass(outcome: Outcome, untraced: List[List[Run]]) -> None:
    tracer = Tracer()
    pairs = []
    with patched(_patches(tracer)):
        for cycle in untraced:
            replay = [Run(r.path, r.seeds) for r in cycle]
            if _execute(outcome, replay, tracer):
                pairs.append((cycle, replay))
    for cycle, replay in pairs:
        for original, again in zip(cycle, replay):
            _check(outcome, again)
            outcome.check(report_digest(again.report)
                          == report_digest(original.report),
                          f"traced fast {again.path} report differs from the "
                          f"untraced one")

    runs = [r for _, replay in pairs for r in replay]
    per_layer(
        outcome,
        Tracer.merged(r.spans for r in runs),
        len(pairs),
        sum(r.wall for r in runs),
        sum(r.wall for cycle, _ in pairs for r in cycle),
    )
    _path_details(outcome, runs)


def _path_details(outcome: Outcome, runs: List[Run]) -> None:
    """Phase timers, agent draws, graph and fault spans, path by path."""
    for path, (protocol, _, _, _) in PATHS.items():
        mine = [r for r in runs if r.path == path]
        prefix = f"fast.{path}"
        for suffix in PHASES[protocol]:
            outcome.detail(f"{prefix}.{suffix}_s",
                           median([r.phases[suffix] for r in mine]), "s")
        if protocol == "sf":
            outcome.detail(
                f"{prefix}.self_s",
                median([r.spans.total["engine"] - sum(r.phases.values())
                        for r in mine]),
                "s",
            )
        draws = [r.agent_draws for r in mine]
        outcome.detail(f"{prefix}.agent_draws", median(draws), "count")
        outcome.detail(
            f"{prefix}.ns_per_agent_draw",
            outcome.ratio(f"{prefix}.ns_per_agent_draw",
                          sum(r.spans.total["engine"] for r in mine) * 1e9,
                          sum(draws)),
            "ns",
        )
    graph = [r for r in runs if r.path == "sf_graph"]
    for span in ("bind", "neighbor_counts"):
        outcome.detail(f"fast.sf_graph.{span}_s",
                       median([r.spans.total.get(span, 0.0) for r in graph]),
                       "s")
    outcome.detail(
        "fast.sf_faulted.fault_s",
        median([r.spans.total.get("fault", 0.0)
                for r in runs if r.path == "sf_faulted"]),
        "s",
    )
