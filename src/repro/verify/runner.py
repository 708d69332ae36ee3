"""The conformance matrix: every engine pair, one command.

``repro-spreading verify`` executes the checks below and reports a
pass/fail table.  Two scales exist: ``quick`` (seconds; CI smoke) and
``full`` (sharper statistical power).  The matrix covers the four
engine pairs the repo must keep equivalent:

================================  ===========================================
pair                              check
================================  ===========================================
reference ↔ batched (spawn)       bit-identical trajectories
corrupt ↔ corrupt_with_uniforms   bit-identical symbol streams
reference ↔ fast SF               pooled weak-opinion law (Hoeffding)
reference ↔ fast SSF              weak-opinion law + fixed-seed convergence
sync ↔ async SSF                  convergence + parallel-round scale
resilient pool ↔ clean serial     bit-identical statistics through chaos
fast ↔ count SF/SSF               weak-opinion laws + convergence reliability
stochastic ↔ handoff-gated count  success proportions under the gate
mean-field ↔ count SF             exact weak probability + fixed-point run
service cache ↔ recomputation     byte-identical envelopes, identical reports
net cluster ↔ fast SF             differential: success/weak/rounds agreement
topology seam ↔ uniform engines   complete-graph bit-identity + EXT4 shape
adversary search ↔ re-evaluation  planted worst case rediscovered; certified
                                  frontier bounds confirmed independently
goldens                           digests of committed reference trajectories
================================  ===========================================
"""

from __future__ import annotations

import dataclasses
import functools
import pathlib
import time
from typing import Callable, List, Optional, Union

import numpy as np

from ..analysis import ChaosSpec, ChaosTrial, ResilienceConfig, repeat_trials
from ..exceptions import ConfigurationError
from ..model import (
    BatchedPullEngine,
    Population,
    PopulationConfig,
    PullEngine,
)
from ..model.async_engine import AsyncPullEngine
from ..noise import NoiseMatrix
from ..protocols import (
    BatchedSourceFilter,
    CountSelfStabilizingSourceFilter,
    CountSourceFilter,
    FastSelfStabilizingSourceFilter,
    FastSourceFilter,
    SFSchedule,
    SSFSchedule,
    SelfStabilizingSourceFilterProtocol,
    SourceFilterProtocol,
)
from ..protocols.ssf_async import AsyncSelfStabilizingSourceFilter
from ..types import SourceCounts
from .conformance import assert_engines_equivalent
from .golden import compare_goldens, default_goldens_dir, write_goldens
from .statistical import (
    FalsePositiveBudget,
    assert_proportions_close,
    assert_success_probability,
)

__all__ = ["CheckOutcome", "VerifyReport", "run_verify", "VERIFY_SCALES"]

VERIFY_SCALES = ("quick", "full")


@dataclasses.dataclass
class CheckOutcome:
    """Result of one conformance check."""

    name: str
    kind: str  # "exact" | "statistical" | "golden"
    passed: bool
    seconds: float
    detail: str = ""


@dataclasses.dataclass
class VerifyReport:
    """Aggregate outcome of one ``verify`` invocation."""

    scale: str
    outcomes: List[CheckOutcome]
    goldens_dir: pathlib.Path
    updated_goldens: bool = False
    budget_report: str = ""

    @property
    def passed(self) -> bool:
        return all(outcome.passed for outcome in self.outcomes)

    def render(self) -> str:
        lines = [f"conformance matrix ({self.scale} scale)"]
        width = max(len(o.name) for o in self.outcomes) if self.outcomes else 0
        for outcome in self.outcomes:
            status = "PASS" if outcome.passed else "FAIL"
            lines.append(
                f"  {status}  {outcome.name.ljust(width)}  "
                f"[{outcome.kind}]  {outcome.seconds:6.2f}s"
            )
            if outcome.detail:
                for row in outcome.detail.splitlines():
                    lines.append(f"        {row}")
        if self.updated_goldens:
            lines.append(f"goldens regenerated in {self.goldens_dir}")
        if self.budget_report:
            lines.append(self.budget_report)
        lines.append("verify: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _check_reference_vs_batched(scale: str, budget: FalsePositiveBudget) -> str:
    """Bit-identity of BatchedPullEngine spawn mode vs serial PullEngine."""
    replicas = 3 if scale == "quick" else 6
    seed = 421
    config = PopulationConfig(n=48, sources=SourceCounts(1, 3), h=4)
    population = Population(config, rng=np.random.default_rng(0))
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=24)
    serial_engine = PullEngine(population, noise)
    batched_engine = BatchedPullEngine(population, noise)

    def serial_run(generator):
        return serial_engine.run(
            SourceFilterProtocol(schedule),
            max_rounds=schedule.total_rounds,
            rng=generator,
        )

    def batched_run(run_seed, run_replicas):
        return batched_engine.run(
            BatchedSourceFilter(schedule),
            max_rounds=schedule.total_rounds,
            replicas=run_replicas,
            rng=run_seed,
        )

    assert_engines_equivalent(
        serial_run,
        batched_run,
        replicas=replicas,
        seed=seed,
        context="reference vs batched SF",
    )
    return f"{replicas} replicas bit-identical (seed {seed})"


def _check_corrupt_equivalence(scale: str, budget: FalsePositiveBudget) -> str:
    """corrupt() must equal drawing uniforms + corrupt_with_uniforms()."""
    matrices = [
        NoiseMatrix.uniform(0.2, 2),
        NoiseMatrix.uniform(0.15, 4),
        NoiseMatrix.random_upper_bounded(0.2, 3, np.random.default_rng(3)),
    ]
    rounds = 3 if scale == "quick" else 10
    for index, matrix in enumerate(matrices):
        size = matrix.matrix.shape[0]
        for r in range(rounds):
            messages = np.random.default_rng(100 + r).integers(
                0, size, size=257
            )
            seed = 1000 * index + r
            direct = matrix.corrupt(messages, np.random.default_rng(seed))
            uniforms = np.random.default_rng(seed).random(messages.size)
            via_uniforms = matrix.corrupt_with_uniforms(messages, uniforms)
            if not np.array_equal(direct, via_uniforms):
                raise ConfigurationError(
                    f"corrupt vs corrupt_with_uniforms diverged for "
                    f"matrix {index} (size {size}) at seed {seed}"
                )
    return f"{len(matrices)} matrix shapes x {rounds} draws bit-identical"


def _sf_weak_setup():
    config = PopulationConfig(n=120, sources=SourceCounts(1, 4), h=6)
    delta = 0.15
    schedule = SFSchedule.from_config(config, delta, m=60)
    return config, delta, schedule


def _check_reference_vs_fast_sf(scale: str, budget: FalsePositiveBudget) -> str:
    """Weak-opinion law of Algorithm 1: agent-level vs fast engine.

    Weak opinions are independent across agents (each depends only on
    that agent's own observation draws of the fixed source displays), so
    pooled correct-counts obey Hoeffding and the two-sample proportion
    check is exactly valid.
    """
    config, delta, schedule = _sf_weak_setup()
    trials = 8 if scale == "quick" else 30
    confidence = 1 - 1e-5

    fast_engine = FastSourceFilter(config, delta, schedule=schedule)
    fast_correct = 0
    for seed in range(trials):
        weak = fast_engine.draw_weak_opinions(np.random.default_rng(seed))
        fast_correct += int((weak == config.correct_opinion).sum())

    noise = NoiseMatrix.uniform(delta, 2)
    agent_correct = 0
    for seed in range(trials):
        rng = np.random.default_rng(10_000 + seed)
        population = Population(config, rng=rng)
        protocol = SourceFilterProtocol(schedule)
        PullEngine(population, noise).run(
            protocol, max_rounds=2 * schedule.phase_rounds, rng=rng
        )
        agent_correct += int(
            (protocol.weak_opinions == config.correct_opinion).sum()
        )

    pooled = trials * config.n
    assert_proportions_close(
        agent_correct,
        pooled,
        fast_correct,
        pooled,
        confidence=confidence,
        context="reference vs fast SF weak-opinion law",
        budget=budget,
    )
    return (
        f"pooled weak-opinion rates {agent_correct / pooled:.4f} vs "
        f"{fast_correct / pooled:.4f} over {pooled} agents "
        f"(confidence {confidence})"
    )


def _check_reference_vs_fast_ssf(
    scale: str, budget: FalsePositiveBudget
) -> str:
    """Algorithm 2 first-epoch weak-opinion law + fixed-seed convergence.

    SSF weak opinions share mild dependence through the common display
    history, so the Hoeffding radius is padded with a 0.05 modelling
    tolerance; fixed seeds make the convergence legs deterministic
    regression checks.
    """
    config = PopulationConfig(n=80, sources=SourceCounts(1, 3), h=8)
    delta = 0.1
    schedule = SSFSchedule.from_config(config, delta, m=64)
    noise = NoiseMatrix.uniform(delta, 4)
    trials = 6 if scale == "quick" else 25
    confidence = 1 - 1e-5

    fast_correct = 0
    for seed in range(trials):
        engine = FastSelfStabilizingSourceFilter(
            config, delta, schedule=schedule
        )
        engine.run(
            max_rounds=schedule.epoch_rounds, rng=seed,
            stop_on_consensus=False,
        )
        fast_correct += int((engine.weak == config.correct_opinion).sum())

    agent_correct = 0
    for seed in range(trials):
        rng = np.random.default_rng(50_000 + seed)
        population = Population(config, rng=rng)
        protocol = SelfStabilizingSourceFilterProtocol(schedule)
        PullEngine(population, noise).run(
            protocol, max_rounds=schedule.epoch_rounds, rng=rng
        )
        agent_correct += int(
            (protocol.weak_opinions == config.correct_opinion).sum()
        )

    pooled = trials * config.n
    assert_proportions_close(
        agent_correct,
        pooled,
        fast_correct,
        pooled,
        confidence=confidence,
        extra_tolerance=0.05,
        context="reference vs fast SSF weak-opinion law",
        budget=budget,
    )

    # Convergence: fast engine statistically, reference on a fixed seed.
    conv_config = PopulationConfig(n=64, sources=SourceCounts(0, 2), h=32)
    conv_delta = 0.05
    conv_schedule = SSFSchedule.from_config(conv_config, conv_delta)
    seeds = 10 if scale == "quick" else 30
    fast_ok = sum(
        FastSelfStabilizingSourceFilter(
            conv_config, conv_delta, schedule=conv_schedule
        ).run(rng=seed).converged
        for seed in range(seeds)
    )
    assert_success_probability(
        int(fast_ok),
        seeds,
        0.8,
        confidence=1 - 1e-6,
        context="fast SSF convergence reliability",
        budget=budget,
    )
    rng = np.random.default_rng(0)
    population = Population(conv_config, rng=rng)
    reference = PullEngine(
        population, NoiseMatrix.uniform(conv_delta, 4)
    ).run(
        SelfStabilizingSourceFilterProtocol(conv_schedule),
        max_rounds=10 * conv_schedule.epoch_rounds,
        rng=rng,
        consensus_patience=2 * conv_schedule.epoch_rounds,
    )
    if not reference.converged:
        raise ConfigurationError(
            "reference SSF failed to converge on fixed seed 0 "
            "(deterministic regression)"
        )
    return (
        f"weak-opinion rates {agent_correct / pooled:.4f} vs "
        f"{fast_correct / pooled:.4f}; fast convergence "
        f"{fast_ok}/{seeds}; reference seed-0 converged"
    )


def _check_sync_vs_async_ssf(scale: str, budget: FalsePositiveBudget) -> str:
    """Asynchrony costs only constants: async SSF consensus lands within
    a small factor of the sync engine's round count (fixed seeds, so the
    comparison is a deterministic regression at quick scale)."""
    config = PopulationConfig(n=48, sources=SourceCounts(0, 2), h=24)
    delta = 0.05
    schedule = SSFSchedule.from_config(config, delta)
    noise = NoiseMatrix.uniform(delta, 4)
    async_seeds = [2] if scale == "quick" else [2, 3, 4]
    ratios = []
    for seed in async_seeds:
        population = Population(config, rng=np.random.default_rng(1))
        protocol = AsyncSelfStabilizingSourceFilter(schedule)
        result = AsyncPullEngine(population, noise).run(
            protocol,
            max_activations=config.n * 12 * schedule.epoch_rounds,
            rng=np.random.default_rng(seed),
            consensus_patience=config.n * schedule.epoch_rounds,
        )
        if not result.converged:
            raise ConfigurationError(
                f"async SSF failed to converge on fixed seed {seed}"
            )
        sync = FastSelfStabilizingSourceFilter(
            config, delta, schedule=schedule
        ).run(rng=seed)
        if not sync.converged:
            raise ConfigurationError(
                f"sync SSF failed to converge on fixed seed {seed}"
            )
        ratio = result.consensus_parallel_rounds / max(
            sync.consensus_round, 1
        )
        if not 0.1 < ratio < 10.0:
            raise ConfigurationError(
                f"async/sync consensus-round ratio {ratio:.2f} outside "
                f"[0.1, 10] on seed {seed} — asynchrony should cost "
                f"only constants"
            )
        ratios.append(ratio)
    return (
        f"{len(async_seeds)} async run(s) converged; "
        f"async/sync round ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
    )


def _resilience_probe(rng: np.random.Generator) -> float:
    """Tiny Monte-Carlo trial for the resilience leg (module-level so it
    pickles across the process boundary)."""
    return float(rng.random())


def _resilience_success(value: float) -> bool:
    return value >= 0.25


def _resilience_measure(value: float) -> float:
    return value


def _check_resilience(scale: str, budget: FalsePositiveBudget) -> str:
    """Chaos-recovered pool statistics vs a clean serial run.

    The resilient backend promises that retries reuse each trial's
    original seed, so a run that survives injected exceptions, worker
    crashes and (at full scale) hung trials must be *bit-identical* to
    the unfaulted serial baseline — same values, same successes, zero
    ``failed_trials``.
    """
    trials = 12 if scale == "quick" else 24
    seed = 777
    baseline = repeat_trials(
        _resilience_probe, trials, seed=seed,
        success=_resilience_success, measure=_resilience_measure,
    )
    schedule = {1: ChaosSpec("raise"), 5: ChaosSpec("crash")}
    trial_timeout = None
    if scale == "full":
        # The hang goes on the *last* trial so no crash-driven pool
        # rebuild reclaims the hung worker early: the run must actually
        # sit out ``trial_timeout`` and take the timeout path.
        schedule[trials - 1] = ChaosSpec("hang")
        trial_timeout = 2.0
    chaos = ChaosTrial(_resilience_probe, schedule, hang_seconds=30.0)
    recovered = repeat_trials(
        chaos, trials, seed=seed,
        success=_resilience_success, measure=_resilience_measure,
        workers=2,
        resilience=ResilienceConfig(trial_timeout=trial_timeout, retries=2),
    )
    if recovered.failed_trials or recovered.incomplete:
        raise ConfigurationError(
            f"resilient run gave up on {recovered.failed_trials} trial(s) "
            f"despite every fault being transient (schedule "
            f"{sorted(schedule)})"
        )
    if (
        recovered.values != baseline.values
        or recovered.successes != baseline.successes
    ):
        raise ConfigurationError(
            "chaos-recovered statistics diverged from the clean serial "
            f"baseline: successes {recovered.successes} vs "
            f"{baseline.successes}, values {recovered.values} vs "
            f"{baseline.values} — seed-preserving retry is broken"
        )
    return (
        f"{trials} trials bit-identical through "
        f"{len(schedule)} injected fault(s) ({', '.join(sorted(s.kind for s in schedule.values()))})"
    )


def _require_identical(legs, name, baseline, other, divergence):
    """Append ``name`` to ``legs`` if two runs agree bit-for-bit.

    Runs agree when their final opinions and convergence flags match;
    otherwise raise ``divergence`` (formatted with ``name``).
    """
    if not np.array_equal(
        np.asarray(baseline.final_opinions),
        np.asarray(other.final_opinions),
    ) or baseline.converged != other.converged:
        raise ConfigurationError(divergence.format(name=name))
    legs.append(name)


def _check_faults(scale: str, budget: FalsePositiveBudget) -> str:
    """Model-layer fault subsystem conformance.

    Two promises: (1) :class:`~repro.faults.IdentityFaultModel` is
    bit-for-bit equivalent to ``fault_model=None`` on every engine
    generation — the fault seams cost nothing when unused; (2) the EXT3
    shape holds at smoke scale — success degrades monotonically in the
    Byzantine fraction, and a mildly misspecified noise level still
    converges w.h.p.
    """
    from ..faults import ByzantineDisplayFault, IdentityFaultModel, NoiseMisspecification

    identity = IdentityFaultModel()
    config = PopulationConfig(n=48, sources=SourceCounts(1, 3), h=4)
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=24)
    legs = []
    same = functools.partial(
        _require_identical,
        legs,
        divergence="IdentityFaultModel diverged from fault_model=None on "
        "{name} — the null fault path must be bit-identical",
    )

    population = Population(config, rng=np.random.default_rng(0))
    serial = [
        PullEngine(population, noise).run(
            SourceFilterProtocol(schedule),
            max_rounds=schedule.total_rounds,
            rng=11,
            fault_model=fault,
        )
        for fault in (None, identity)
    ]
    same("PullEngine", *serial)

    batch = [
        BatchedPullEngine(population, noise).run(
            BatchedSourceFilter(schedule),
            max_rounds=schedule.total_rounds,
            replicas=3,
            rng=11,
            fault_model=fault,
        )
        for fault in (None, identity)
    ]
    for replica, (clean, faulted) in enumerate(zip(*batch)):
        same(f"BatchedPullEngine[{replica}]", clean, faulted)

    ssf_config = PopulationConfig(n=48, sources=SourceCounts(0, 2), h=24)
    ssf_schedule = SSFSchedule.from_config(ssf_config, 0.05)
    async_runs = []
    for fault in (None, identity):
        protocol = AsyncSelfStabilizingSourceFilter(ssf_schedule)
        async_runs.append(
            AsyncPullEngine(
                Population(ssf_config, rng=np.random.default_rng(1)),
                NoiseMatrix.uniform(0.05, 4),
            ).run(
                protocol,
                max_activations=ssf_config.n * 4 * ssf_schedule.epoch_rounds,
                rng=7,
                fault_model=fault,
            )
        )
    same("AsyncPullEngine", *async_runs)

    same(
        "FastSourceFilter",
        FastSourceFilter(config, 0.2, schedule=schedule).run(rng=3),
        FastSourceFilter(
            config, 0.2, schedule=schedule, fault_model=identity
        ).run(rng=3),
    )
    same(
        "FastSelfStabilizingSourceFilter",
        FastSelfStabilizingSourceFilter(
            ssf_config, 0.05, schedule=ssf_schedule
        ).run(rng=3),
        FastSelfStabilizingSourceFilter(
            ssf_config, 0.05, schedule=ssf_schedule, fault_model=identity
        ).run(rng=3),
    )

    # EXT3 shape at smoke scale: Byzantine monotonicity + benign
    # misspecification.
    trials = 6 if scale == "quick" else 20
    shape_config = PopulationConfig(n=128, sources=SourceCounts(0, 16), h=8)
    rates = []
    for frac in (0.0, 0.02, 0.25):
        fault = (
            ByzantineDisplayFault(fraction=frac, mode="fixed") if frac else None
        )
        engine = FastSourceFilter(shape_config, 0.2, fault_model=fault)
        ok = sum(
            engine.run(rng=900 + trial).converged for trial in range(trials)
        )
        rates.append(ok / trials)
    tolerance = 1.5 / trials
    if not all(b <= a + tolerance for a, b in zip(rates, rates[1:])):
        raise ConfigurationError(
            "success must degrade monotonically in the Byzantine "
            f"fraction, got {rates} for fractions (0, 0.02, 0.25)"
        )
    mis = FastSourceFilter(
        shape_config, 0.1, fault_model=NoiseMisspecification.uniform(0.15)
    )
    mis_ok = sum(mis.run(rng=1200 + t).converged for t in range(trials))
    assert_success_probability(
        int(mis_ok),
        trials,
        0.7,
        confidence=1 - 1e-6,
        context="misspecified-noise convergence (true 0.15, assumed 0.1)",
        budget=budget,
    )
    return (
        f"identity bit-identical on {len(legs)} legs; byzantine success "
        f"{rates}; misspec {mis_ok}/{trials}"
    )


def _check_count_engines(scale: str, budget: FalsePositiveBudget) -> str:
    """Count-level engines vs the per-agent fast engines.

    Four statistical legs plus one exact leg:

    1. *SF weak-opinion law* — the count engine's phase-1 commit is one
       ``Binomial(n, p_weak)`` draw; the fast engine draws ``n``
       per-agent counter comparisons.  Both pool to sums of i.i.d.
       Bernoullis with the same ``p_weak``, so the two-sample Hoeffding
       proportion check applies exactly.
    2. *SF convergence + handoff gate* — count-engine success
       probability is bounded below, and runs with the
       :class:`~repro.analysis.MeanFieldHandoff` gate enabled must match
       the fully stochastic success proportion (the gate only fires
       where the O(1/sqrt(n)) fluctuation cannot change the basin).
    3. *SSF first-epoch weak law* — non-source weak opinions after one
       flush, fast vs count, padded by the same 0.05 modelling tolerance
       as the reference-vs-fast check (agents share the random initial
       display counts within a trial).
    4. *SSF convergence reliability* — count SSF reaches stable
       consensus w.h.p. on the same grid the fast engine is held to.
    5. *Mean-field exactness* — :class:`~repro.analysis.MeanFieldEngine`
       must reproduce the count engine's closed-form weak probability
       bit-for-bit and run to the all-correct fixed point.
    """
    from ..analysis import MeanFieldEngine, MeanFieldHandoff

    # Leg 1: SF weak-opinion law, count vs fast, pooled over agents.
    config, delta, schedule = _sf_weak_setup()
    trials = 8 if scale == "quick" else 30
    confidence = 1 - 1e-5
    fast_correct = 0
    count_correct = 0
    for seed in range(trials):
        weak = FastSourceFilter(
            config, delta, schedule=schedule
        ).draw_weak_opinions(np.random.default_rng(seed))
        fast_correct += int((weak == config.correct_opinion).sum())
        count_engine = CountSourceFilter(config, delta, schedule=schedule)
        count_engine.run(rng=np.random.default_rng(20_000 + seed))
        ones = count_engine.weak_count
        count_correct += ones if config.correct_opinion == 1 else config.n - ones
    pooled = trials * config.n
    assert_proportions_close(
        fast_correct,
        pooled,
        count_correct,
        pooled,
        confidence=confidence,
        context="fast vs count SF weak-opinion law",
        budget=budget,
    )

    # Leg 2: SF convergence reliability + the mean-field handoff gate.
    conv_config = PopulationConfig(n=400, sources=SourceCounts(1, 6), h=8)
    conv_delta = 0.2
    seeds = 40 if scale == "quick" else 200
    count_ok = sum(
        CountSourceFilter(conv_config, conv_delta).run(rng=seed).converged
        for seed in range(seeds)
    )
    assert_success_probability(
        int(count_ok),
        seeds,
        0.8,
        confidence=1 - 1e-6,
        context="count SF convergence reliability",
        budget=budget,
    )
    hybrid_ok = sum(
        CountSourceFilter(
            conv_config, conv_delta, handoff=MeanFieldHandoff()
        ).run(rng=1_000_000 + seed).converged
        for seed in range(seeds)
    )
    assert_proportions_close(
        int(count_ok),
        seeds,
        int(hybrid_ok),
        seeds,
        confidence=confidence,
        context="handoff-gated vs fully stochastic count SF success",
        budget=budget,
    )

    # Leg 3: SSF first-epoch weak-opinion law, fast vs count.
    ssf_config = PopulationConfig(n=80, sources=SourceCounts(1, 3), h=8)
    ssf_delta = 0.1
    ssf_schedule = SSFSchedule.from_config(ssf_config, ssf_delta, m=64)
    ssf_trials = 6 if scale == "quick" else 25
    nonsources = ssf_config.n - ssf_config.num_sources
    fast_weak_correct = 0
    count_weak_correct = 0
    for seed in range(ssf_trials):
        fast = FastSelfStabilizingSourceFilter(
            ssf_config, ssf_delta, schedule=ssf_schedule
        )
        fast.run(
            max_rounds=ssf_schedule.epoch_rounds, rng=seed,
            stop_on_consensus=False,
        )
        fast_weak_correct += int(
            (fast.weak[ssf_config.num_sources:] == ssf_config.correct_opinion).sum()
        )
        protocol = CountSelfStabilizingSourceFilter(
            ssf_config, ssf_delta, schedule=ssf_schedule
        )
        protocol.run(
            max_rounds=ssf_schedule.epoch_rounds,
            rng=np.random.default_rng(30_000 + seed),
            stop_on_consensus=False,
        )
        ones = protocol.weak_count
        count_weak_correct += (
            ones if ssf_config.correct_opinion == 1 else nonsources - ones
        )
    ssf_pooled = ssf_trials * nonsources
    assert_proportions_close(
        fast_weak_correct,
        ssf_pooled,
        count_weak_correct,
        ssf_pooled,
        confidence=confidence,
        extra_tolerance=0.05,
        context="fast vs count SSF first-epoch weak-opinion law",
        budget=budget,
    )

    # Leg 4: SSF convergence reliability on the fast engine's grid.
    ssf_conv_config = PopulationConfig(n=64, sources=SourceCounts(0, 2), h=32)
    ssf_conv_delta = 0.05
    ssf_seeds = 10 if scale == "quick" else 30
    ssf_ok = sum(
        CountSelfStabilizingSourceFilter(ssf_conv_config, ssf_conv_delta)
        .run(rng=seed)
        .converged
        for seed in range(ssf_seeds)
    )
    assert_success_probability(
        int(ssf_ok),
        ssf_seeds,
        0.8,
        confidence=1 - 1e-6,
        context="count SSF convergence reliability",
        budget=budget,
    )

    # Leg 5: mean-field engine is exact on the count engine's weak law
    # and runs to the all-correct fixed point (deterministic).
    mf_config = PopulationConfig(n=1_000_000, sources=SourceCounts(0, 4), h=16)
    mf = MeanFieldEngine(mf_config, conv_delta).run()
    expected = CountSourceFilter(
        mf_config, conv_delta
    ).expected_weak_probability()
    if abs(mf.weak_fraction_correct - expected) > 1e-12:
        raise ConfigurationError(
            f"mean-field weak probability {mf.weak_fraction_correct!r} "
            f"deviates from the count engine's closed form {expected!r}"
        )
    if not mf.converged or mf.final_fraction_correct != 1.0:
        raise ConfigurationError(
            f"mean-field SF failed to reach the all-correct fixed point "
            f"(converged={mf.converged}, "
            f"final={mf.final_fraction_correct})"
        )
    return (
        f"SF weak rates {fast_correct / pooled:.4f} vs "
        f"{count_correct / pooled:.4f} over {pooled} agents; "
        f"count SF {count_ok}/{seeds}, handoff {hybrid_ok}/{seeds}; "
        f"SSF weak rates {fast_weak_correct / ssf_pooled:.4f} vs "
        f"{count_weak_correct / ssf_pooled:.4f}; count SSF "
        f"{ssf_ok}/{ssf_seeds}; mean-field exact + fixed point"
    )


def _check_service_cache(scale: str, budget: FalsePositiveBudget) -> str:
    """Service result cache: a hit is bit-identical to a recomputation.

    Drives the service execution core directly (no sockets): a seeded
    serial-engine run is computed cold, replayed from the cache, and
    recomputed with caching disabled.  The cached and recomputed
    envelopes must be byte-identical JSON, and the decoded reports must
    pass :func:`~repro.verify.conformance.assert_results_identical` —
    the same bit-identity bar the batched engine is held to.  A second
    leg asserts the key actually separates seeds.
    """
    import json
    import tempfile

    from ..results import report_from_dict
    from ..service import ResultCache, canonical_key, execute_run
    from .conformance import assert_results_identical

    seeds = (2025,) if scale == "quick" else (2025, 2026, 2027)
    request = {
        "engine": "serial", "protocol": "sf", "n": 48,
        "s0": 1, "s1": 3, "h": 4, "delta": 0.2,
    }
    envelope_fields = ("kind", "request", "report", "code_version")
    with tempfile.TemporaryDirectory() as tmp:
        cache = ResultCache(tmp)
        for seed in seeds:
            seeded = dict(request, seed=seed)
            cold = execute_run(dict(seeded), cache=cache)
            if cold["cached"]:
                raise ConfigurationError(
                    f"first service run of seed {seed} claimed a cache hit"
                )
            hit = execute_run(dict(seeded), cache=cache)
            if not hit["cached"]:
                raise ConfigurationError(
                    f"repeat service run of seed {seed} missed the cache"
                )
            fresh = execute_run(dict(seeded), cache=None)
            stored_json = json.dumps(
                {f: hit[f] for f in envelope_fields}, sort_keys=True
            )
            fresh_json = json.dumps(
                {f: fresh[f] for f in envelope_fields}, sort_keys=True
            )
            if stored_json != fresh_json:
                raise ConfigurationError(
                    f"cached envelope for seed {seed} is not byte-identical "
                    f"to its recomputation — the cache returned a different "
                    f"artifact than the engines produce"
                )
            assert_results_identical(
                report_from_dict(hit["report"]),
                report_from_dict(fresh["report"]),
                context=f"service cache seed {seed}",
                compare_trace=False,
            )
        keys = {
            canonical_key("run", dict(request, seed=seed, trials=1,
                                      max_rounds=None))
            for seed in range(16)
        }
        if len(keys) != 16:
            raise ConfigurationError(
                f"cache keys collided across seeds: {len(keys)}/16 distinct"
            )
    return (
        f"{len(seeds)} seeded serial run(s) cached byte-identical to "
        f"recomputation; 16/16 seed keys distinct"
    )


def _check_net(scale: str, budget: FalsePositiveBudget) -> str:
    """Differential verification: networked deployment vs fast engine.

    Boots real localhost UDP clusters (:class:`repro.net.ClusterRunner`)
    and requires them to agree statistically with the in-process fast
    engine running the *same* truncated SF schedule — same population
    law, same channel, different substrate.  Four legs:

    * **registry** — ``create_engine("net", ...)`` satisfies the
      conformance grid: it returns a :class:`NetRunResult` that runs the
      schedule's full horizon and reports its seed.
    * **weak-opinion law** (Hoeffding, exactly valid) — weak opinions
      are independent across agents, so pooled correct-counts from the
      cluster and the fast engine are two binomial samples of the same
      parameter.
    * **success probability** (Hoeffding) — per-trial convergence
      proportions must agree.
    * **rounds-to-consensus** (deterministic band) — the mean number of
      boosting sub-phases before stable full consensus, read off the
      cluster's per-round trace at sub-phase boundaries and off the
      fast engine's ``boost_trace``, must agree within 1.5 sub-phases
      (no alpha charged; both laws are identical, the band absorbs the
      small-sample noise of the expensive networked trials).
    """
    from ..engines import create_engine
    from ..net import ClusterRunner, NetRunResult

    delta = 0.2
    confidence = 1 - 1e-5

    # Leg 1: registry conformance on a small cluster.
    small_config = PopulationConfig(n=12, sources=SourceCounts(s0=0, s1=2), h=6)
    small_schedule = SFSchedule.from_config(
        small_config, delta, m=12, boost_numerator=8, subphase_factor=0.5
    )
    handle = create_engine(
        "net", "sf", small_config, delta, schedule=small_schedule
    )
    report = handle.run(seed=123)
    if not isinstance(report, NetRunResult):
        raise ConfigurationError(
            f"create_engine('net').run returned {type(report).__name__}, "
            f"expected NetRunResult"
        )
    if report.rounds != small_schedule.total_rounds:
        raise ConfigurationError(
            f"net run executed {report.rounds} rounds, expected the "
            f"schedule horizon {small_schedule.total_rounds}"
        )
    if report.seed != 123:
        raise ConfigurationError(
            f"net report carries seed {report.seed}, expected 123"
        )

    # Differential legs: 64-peer deployment vs fast engine.
    config = PopulationConfig(n=64, sources=SourceCounts(s0=0, s1=4), h=16)
    schedule = SFSchedule.from_config(
        config, delta, m=48, boost_numerator=24, subphase_factor=1.0
    )
    net_trials = 4 if scale == "quick" else 8
    fast_trials = 30 if scale == "quick" else 60
    correct = config.correct_opinion
    boundaries = [
        2 * schedule.phase_rounds + k * schedule.subphase_rounds - 1
        for k in range(1, schedule.num_subphases + 1)
    ] + [schedule.total_rounds - 1]

    def consensus_subphase(fractions):
        """1-based sub-phase from which full consensus holds to the end
        (censored at ``len + 1`` when it never stabilizes)."""
        stable = len(fractions) + 1
        for index in range(len(fractions) - 1, -1, -1):
            if fractions[index] == 1.0:
                stable = index + 1
            else:
                break
        return stable

    runner = ClusterRunner("sf", config, delta, schedule=schedule)
    net_success = net_weak_correct = 0
    net_subphases = []
    for seed in range(net_trials):
        result = runner.run(seed=seed)
        net_success += int(result.converged)
        net_weak_correct += int((result.weak_opinions == correct).sum())
        by_round = {
            record.round_index: record.fraction_correct
            for record in result.trace
        }
        net_subphases.append(
            consensus_subphase([by_round[b] for b in boundaries])
        )

    fast_engine = FastSourceFilter(config, delta, schedule=schedule)
    fast_success = fast_weak_correct = 0
    fast_subphases = []
    for seed in range(fast_trials):
        fast_result = fast_engine.run(np.random.default_rng(10_000 + seed))
        fast_success += int(fast_result.converged)
        fast_weak_correct += int(
            (fast_result.weak_opinions == correct).sum()
        )
        fast_subphases.append(consensus_subphase(list(fast_result.boost_trace)))

    pooled_net = net_trials * config.n
    pooled_fast = fast_trials * config.n
    assert_proportions_close(
        net_weak_correct,
        pooled_net,
        fast_weak_correct,
        pooled_fast,
        confidence=confidence,
        context="net vs fast SF pooled weak-opinion law",
        budget=budget,
    )
    assert_proportions_close(
        net_success,
        net_trials,
        fast_success,
        fast_trials,
        confidence=confidence,
        context="net vs fast SF success probability",
        budget=budget,
    )
    mean_net = float(np.mean(net_subphases))
    mean_fast = float(np.mean(fast_subphases))
    if abs(mean_net - mean_fast) > 1.5:
        raise ConfigurationError(
            f"rounds-to-consensus diverged: cluster stabilizes at mean "
            f"sub-phase {mean_net:.2f}, fast engine at {mean_fast:.2f} "
            f"(band 1.5 sub-phases of {schedule.subphase_rounds} rounds)"
        )
    return (
        f"64-peer cluster vs fast engine: weak "
        f"{net_weak_correct / pooled_net:.4f} vs "
        f"{fast_weak_correct / pooled_fast:.4f}, success "
        f"{net_success}/{net_trials} vs {fast_success}/{fast_trials}, "
        f"consensus sub-phase {mean_net:.2f} vs {mean_fast:.2f}; "
        f"registry grid OK"
    )


def _check_topology(scale: str, budget: FalsePositiveBudget) -> str:
    """Topology seam conformance.

    Three promises: (1) the complete graph is the model — every engine
    generation run with ``topology="complete"`` is bit-identical to the
    untopologized run, so the seam costs nothing when unused; (2) the
    capability grid is typed — agent-blind engines reject graph
    topologies with :class:`~repro.exceptions.UnsupportedFeatureError`
    at construction; (3) the EXT4 shape holds at smoke scale — SF stays
    near-unanimous w.h.p. on a dense regular graph, and the hybrid
    push-pull baseline does so on the spatial grid where SF collapses.
    """
    from ..engines import create_engine
    from ..exceptions import UnsupportedFeatureError
    from ..topology import HybridPushPull, RandomRegularTopology

    config = PopulationConfig(n=48, sources=SourceCounts(1, 3), h=4)
    noise = NoiseMatrix.uniform(0.2, 2)
    schedule = SFSchedule.from_config(config, 0.2, m=24)
    legs = []
    same = functools.partial(
        _require_identical,
        legs,
        divergence="topology='complete' diverged from topology=None on "
        "{name} — the complete graph must take the untouched uniform path",
    )

    population = Population(config, rng=np.random.default_rng(0))
    serial = [
        PullEngine(population, noise).run(
            SourceFilterProtocol(schedule),
            max_rounds=schedule.total_rounds,
            rng=11,
            topology=topology,
        )
        for topology in (None, "complete")
    ]
    same("PullEngine", *serial)

    batch = [
        BatchedPullEngine(population, noise).run(
            BatchedSourceFilter(schedule),
            max_rounds=schedule.total_rounds,
            replicas=3,
            rng=11,
            topology=topology,
        )
        for topology in (None, "complete")
    ]
    for replica, (clean, topologized) in enumerate(zip(*batch)):
        same(f"BatchedPullEngine[{replica}]", clean, topologized)

    same(
        "create_engine('fast')",
        create_engine("fast", "sf", config, 0.2, schedule=schedule).run(
            seed=3
        ),
        create_engine(
            "fast", "sf", config, 0.2, schedule=schedule,
            topology="complete",
        ).run(seed=3),
    )

    for engine in ("count", "mean-field"):
        try:
            create_engine(engine, "sf", config, 0.2, topology="regular")
        except UnsupportedFeatureError:
            pass
        else:
            raise ConfigurationError(
                f"agent-blind engine {engine!r} accepted a graph "
                f"topology; it must raise UnsupportedFeatureError"
            )

    # EXT4 shape at smoke scale: SF near-unanimous on a dense regular
    # graph, hybrid near-unanimous on the grid where SF coin-flips.
    trials = 8 if scale == "quick" else 20
    n = 144
    shape_config = PopulationConfig(n=n, sources=SourceCounts(0, n // 16), h=8)
    sf_ok = 0
    for trial in range(trials):
        result = FastSourceFilter(
            shape_config, 0.1, topology=RandomRegularTopology(degree=n // 2)
        ).run(rng=np.random.default_rng(700 + trial))
        sf_ok += float(np.mean(result.final_opinions == 1)) >= 0.95
    assert_success_probability(
        int(sf_ok),
        trials,
        0.7,
        confidence=1 - 1e-6,
        context="SF near-unanimity on dense regular graph",
        budget=budget,
    )
    hybrid_ok = 0
    for trial in range(trials):
        result = HybridPushPull(
            shape_config, 0.1, topology="grid",
            switch_fraction=0.85, max_pull_windows=16,
        ).run(rng=np.random.default_rng(800 + trial))
        hybrid_ok += result.accuracy >= 0.95
    assert_success_probability(
        int(hybrid_ok),
        trials,
        0.7,
        confidence=1 - 1e-6,
        context="hybrid push-pull near-unanimity on grid",
        budget=budget,
    )
    return (
        f"complete bit-identical on {len(legs)} legs; agent-blind "
        f"engines typed-reject; SF dense {sf_ok}/{trials}, hybrid grid "
        f"{hybrid_ok}/{trials}"
    )


def _check_adversary(scale: str, budget: FalsePositiveBudget) -> str:
    """Adaptive adversary search conformance.

    Three promises: (1) *rediscovery* — a planted known-bad
    configuration (Byzantine wrong-symbol displays at a fraction the
    protocol cannot absorb) is found by the search, and the certified
    frontier point is at least as damaging; (2) *certificates hold* —
    every frontier point with a non-vacuous Clopper–Pearson lower bound
    survives an independent fresh-seed exact-binomial re-evaluation,
    charged to the shared verify :class:`FalsePositiveBudget`; (3)
    *determinism* — the same seed reproduces the identical frontier.
    The search itself runs under its own error ledger (its SPRT
    accept/reject mass only affects which point is found, never the
    validity of a certificate).
    """
    from itertools import islice

    from ..adversary_search import (
        AdversaryConfig,
        CandidateEvaluator,
        FaultConfigSpace,
        SearchSettings,
        run_search,
    )
    from ..rng import generator_stream

    config = PopulationConfig(n=96, sources=SourceCounts(0, 4), h=6)
    delta = 0.2
    planted_fraction = 0.15
    planted = AdversaryConfig(
        family="byzantine", fraction=planted_fraction, mode="fixed", symbol=0
    )
    settings = SearchSettings(
        num_candidates=4,
        rungs=2,
        base_trials=8,
        refine_steps=2,
        cert_trials=30 if scale == "quick" else 80,
    )
    budgets = {"byzantine": [planted_fraction], "misspec": [0.02]}
    frontier = run_search(
        "sf",
        config,
        assumed_delta=delta,
        budgets=budgets,
        seed=1234,
        settings=settings,
        extra_candidates={"byzantine": [planted]},
    )

    worst = frontier.worst("byzantine")
    if worst is None or worst.certified_failure_lower_bound < 0.5:
        raise ConfigurationError(
            f"search failed to rediscover the planted Byzantine "
            f"configuration at fraction {planted_fraction}: worst "
            f"certified lower bound "
            f"{worst.certified_failure_lower_bound if worst else None}"
        )

    # Independent re-evaluation of every non-vacuous certificate.
    space = FaultConfigSpace(
        protocol="sf", assumed_delta=delta, families=tuple(budgets)
    )
    evaluator = CandidateEvaluator(space, config)
    trials = 24 if scale == "quick" else 60
    confirmed = vacuous = 0
    for index, point in enumerate(frontier.points):
        if point.certified_failure_lower_bound <= 0.0:
            vacuous += 1  # nothing is claimed; nothing to confirm
            continue
        candidate = AdversaryConfig(**point.config)
        _, run_one = evaluator.failure_runner(candidate)
        failures = sum(
            bool(run_one(generator))
            for generator in islice(generator_stream(555 + index), trials)
        )
        assert_success_probability(
            failures,
            trials,
            point.certified_failure_lower_bound,
            confidence=1 - 1e-6,
            context=(
                f"adversary frontier point {point.family}@{point.budget} "
                f"re-evaluation"
            ),
            budget=budget,
        )
        confirmed += 1

    replay = run_search(
        "sf",
        config,
        assumed_delta=delta,
        budgets=budgets,
        seed=1234,
        settings=settings,
        extra_candidates={"byzantine": [planted]},
    )
    if replay.to_dict() != frontier.to_dict():
        raise ConfigurationError(
            "adversary search is not deterministic: the same seed "
            "produced a different frontier"
        )

    return (
        f"planted worst case rediscovered (certified >= "
        f"{worst.certified_failure_lower_bound:.3f}); {confirmed} "
        f"certificate(s) confirmed on {trials} fresh trials, {vacuous} "
        f"vacuous; frontier replay identical"
    )


_CHECKS: List[tuple] = [
    ("reference-vs-batched-sf", "exact", _check_reference_vs_batched),
    ("corrupt-vs-corrupt-with-uniforms", "exact", _check_corrupt_equivalence),
    ("reference-vs-fast-sf", "statistical", _check_reference_vs_fast_sf),
    ("reference-vs-fast-ssf", "statistical", _check_reference_vs_fast_ssf),
    ("sync-vs-async-ssf", "statistical", _check_sync_vs_async_ssf),
    ("resilience", "exact", _check_resilience),
    ("faults", "statistical", _check_faults),
    ("count", "statistical", _check_count_engines),
    ("service", "exact", _check_service_cache),
    ("net", "statistical", _check_net),
    ("topology", "statistical", _check_topology),
    ("adversary", "statistical", _check_adversary),
]


def run_verify(
    scale: str = "quick",
    *,
    goldens_dir: Optional[Union[str, pathlib.Path]] = None,
    update_goldens: bool = False,
    checks: Optional[List[str]] = None,
) -> VerifyReport:
    """Run the conformance matrix and the golden-trace comparison.

    ``checks`` optionally restricts the matrix to a subset of check
    names (goldens always run).  ``update_goldens=True`` rewrites the
    fixtures instead of diffing them.
    """
    if scale not in VERIFY_SCALES:
        raise ConfigurationError(
            f"scale must be one of {VERIFY_SCALES}, got {scale!r}"
        )
    directory = pathlib.Path(goldens_dir or default_goldens_dir())
    budget = FalsePositiveBudget(total=1e-3)
    outcomes: List[CheckOutcome] = []
    for name, kind, check in _CHECKS:
        if checks is not None and name not in checks:
            continue
        start = time.perf_counter()
        try:
            detail = check(scale, budget)
            passed = True
        except AssertionError as exc:
            detail, passed = str(exc), False
        except ConfigurationError as exc:
            detail, passed = str(exc), False
        outcomes.append(
            CheckOutcome(
                name=name,
                kind=kind,
                passed=passed,
                seconds=time.perf_counter() - start,
                detail=detail,
            )
        )

    start = time.perf_counter()
    if update_goldens:
        written = write_goldens(directory)
        outcomes.append(
            CheckOutcome(
                name="golden-traces",
                kind="golden",
                passed=True,
                seconds=time.perf_counter() - start,
                detail=f"regenerated {len(written)} fixtures",
            )
        )
    else:
        mismatches = compare_goldens(directory)
        outcomes.append(
            CheckOutcome(
                name="golden-traces",
                kind="golden",
                passed=not mismatches,
                seconds=time.perf_counter() - start,
                detail="\n".join(mismatches)
                or f"{directory} digests all match",
            )
        )
    return VerifyReport(
        scale=scale,
        outcomes=outcomes,
        goldens_dir=directory,
        updated_goldens=update_goldens,
        budget_report=budget.report(),
    )
