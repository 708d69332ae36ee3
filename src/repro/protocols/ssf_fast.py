"""Vectorized Self-stabilizing Source Filter engine.

Exactness argument: within any window of rounds during which *no agent
flushes its buffer*, the displayed messages are constant, so each agent's
added symbol tallies over a window of ``g`` rounds are exactly
``Multinomial(g*h, q)`` with ``q = delta + (counts/n)*(1-4*delta)``
(uniform 4-letter channel), i.i.d. across agents.  The engine therefore
advances in *gaps*: it jumps straight to the next update event, draws one
multinomial per agent for the whole gap, applies the due updates, and
repeats.  With synchronized buffers (clean start, or the targeted
adversary) a full epoch is a single batch; with adversarially staggered
buffers gaps shrink towards one round and the engine gracefully degrades
to the per-round cost — still exact.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..faults.base import validate_sample_loss
from ..model.config import PopulationConfig
from ..noise import NoiseMatrix
from ..results import RunReport
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_rng, seed_of
from .parameters import SSFSchedule
from .ssf import (
    SYMBOL_NONSOURCE_1,
    SYMBOL_SOURCE_0,
    SYMBOL_SOURCE_1,
    majority_with_ties,
)


def _uniform_delta4(noise: Union[float, NoiseMatrix]) -> float:
    """Extract the uniform noise level for the 4-letter alphabet."""
    if isinstance(noise, NoiseMatrix):
        if noise.size != 4:
            raise ConfigurationError("SSF uses the 2-bit alphabet (|Sigma| = 4)")
        return noise.uniform_delta
    delta = float(noise)
    if not 0.0 <= delta <= 0.25:
        raise ConfigurationError(f"uniform delta must lie in [0, 0.25], got {delta}")
    return delta


@dataclasses.dataclass
class SSFRunResult(RunReport):
    """Outcome of one fast-SSF execution.

    Attributes
    ----------
    converged:
        All agents held the correct opinion at the end of the run.
    consensus_round:
        First round from which consensus held through the end (``None`` if
        it never did).
    rounds_executed:
        Total simulated rounds.
    final_opinions / final_weak_opinions:
        State at the end of the run.
    trace:
        ``(round, fraction_correct)`` pairs recorded after every round in
        which at least one agent updated.
    """

    converged: bool
    consensus_round: Optional[int]
    rounds_executed: int
    final_opinions: np.ndarray
    final_weak_opinions: np.ndarray
    trace: List[tuple]
    seed: Optional[int] = None


class FastSelfStabilizingSourceFilter:
    """Gap-batched SSF simulator under uniform 4-letter noise.

    Parameters
    ----------
    config:
        Population parameters.
    noise:
        Uniform noise level over the 4-letter alphabet (float in
        ``[0, 1/4)``) or a uniform 4x4 :class:`NoiseMatrix`.  For
        non-uniform physical noise apply the Section 4 reduction first.
    schedule:
        Optional pre-built :class:`SSFSchedule` (default: Eq. (30) with
        the calibrated constant).
    fault_model:
        Optional :class:`~repro.faults.FaultModel`.  ``None`` or a null
        model keeps the bit-identical legacy path.  A non-null model must
        have deterministic displays (gap batching needs within-gap
        constancy), but — unlike the fast SF engine — *scheduled* faults
        are supported: the gap loop caps each batch at the model's next
        :meth:`~repro.faults.FaultModel.transition_rounds` boundary, so
        crash/recovery schedules stay exact.  This makes the fast SSF
        engine the self-stabilization showcase: crash agents mid-run and
        watch the ``faults.*`` recovery metrics.
    """

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, NoiseMatrix],
        schedule: Optional[SSFSchedule] = None,
        constant: Optional[float] = None,
        sample_loss: float = 0.0,
        fault_model=None,
        topology=None,
    ) -> None:
        self.config = config
        self.delta = _uniform_delta4(noise)
        self.sample_loss = validate_sample_loss(sample_loss)
        self.fault_model = fault_model
        self.topology = topology
        if topology is not None:
            from ..exceptions import UnsupportedFeatureError
            from ..topology import create_topology

            if not create_topology(topology).is_uniform:
                # SSF's window accounting assumes exchangeable uniform
                # sampling throughout; only the complete graph is exact.
                raise UnsupportedFeatureError(
                    "the fast SSF engine supports only the complete "
                    "(uniform) topology; run SSF on a graph through the "
                    "serial engine: create_engine('serial', 'ssf', ..., "
                    "topology=...)"
                )
        if schedule is None:
            kwargs = {} if constant is None else {"constant": constant}
            schedule = SSFSchedule.from_config(config, self.delta, **kwargs)
        self.schedule = schedule
        n = config.n
        self._rng: np.random.Generator = None
        self.memory = np.zeros((n, 4), dtype=np.int64)
        self.fill = np.zeros(n, dtype=np.int64)
        self.weak = np.zeros(n, dtype=np.int8)
        self.opinion = np.zeros(n, dtype=np.int8)
        self._initialized = False

    # ------------------------------------------------------------------
    # Adversary contract (matches the agent-level class).
    # ------------------------------------------------------------------
    alphabet_size = 4

    @property
    def memory_capacity(self) -> int:
        """The buffer size parameter ``m``."""
        return self.schedule.m

    def opinions(self) -> np.ndarray:
        """Current opinion vector (duck-types the agent-level protocol)."""
        return self.opinion

    @property
    def weak_opinions(self) -> np.ndarray:
        """Current weak-opinion vector (agent-level protocol spelling)."""
        return self.weak

    @property
    def memory_fill(self) -> np.ndarray:
        """Messages currently buffered per agent (agent-level spelling)."""
        return self.fill

    def reset(self, rng: RngLike = None) -> None:
        """Clean start: empty buffers, random opinions (sources on pref)."""
        self._rng = coerce_rng(rng)
        n = self.config.n
        self.memory[:] = 0
        self.fill[:] = 0
        opinions = self._rng.integers(0, 2, size=n).astype(np.int8)
        # Fast engine tracks sources positionally: the first s0 agents
        # prefer 0, the next s1 prefer 1 (exchangeability makes the actual
        # placement irrelevant).
        opinions[: self.config.s0] = 0
        opinions[self.config.s0 : self.config.num_sources] = 1
        self.opinion = opinions
        self.weak = opinions.copy()
        self._initialized = True

    def install_state(
        self,
        opinions: np.ndarray,
        weak_opinions: np.ndarray,
        memory_counts: np.ndarray,
    ) -> None:
        """Adversarially overwrite the corruptible state."""
        n = self.config.n
        opinions = np.asarray(opinions, dtype=np.int8)
        weak = np.asarray(weak_opinions, dtype=np.int8)
        memory = np.asarray(memory_counts, dtype=np.int64)
        if opinions.shape != (n,) or weak.shape != (n,) or memory.shape != (n, 4):
            raise ConfigurationError("adversarial state has wrong shape")
        if memory.min() < 0 or memory.sum(axis=1).max() > self.memory_capacity:
            raise ConfigurationError(
                "adversarial memories must hold between 0 and m messages"
            )
        self.opinion = opinions.copy()
        self.weak = weak.copy()
        self.memory = memory.copy()
        self.fill = memory.sum(axis=1)
        self._initialized = True

    # ------------------------------------------------------------------
    def _observation_distribution(
        self, round_index: int = 0, delta: Optional[float] = None, fault=None
    ) -> np.ndarray:
        """q = delta + (display_counts/pool) * (1 - 4*delta), per symbol.

        Tallies the honest positional display vector (``delta`` defaults
        to the engine's level).  Under an active ``fault`` model the
        vector first goes through the model's display transform and is
        restricted to the samplable agents — still exact, because
        displays are constant within a gap (deterministic faults, gaps
        capped at transition rounds)."""
        cfg = self.config
        if delta is None:
            delta = self.delta
        disp = np.empty(cfg.n, dtype=np.int64)
        disp[: cfg.s0] = SYMBOL_SOURCE_0
        disp[cfg.s0 : cfg.num_sources] = SYMBOL_SOURCE_1
        disp[cfg.num_sources :] = self.weak[cfg.num_sources :]
        if fault is not None:
            disp = np.asarray(
                fault.transform_displays(round_index, disp, self._rng)
            )
            visible = fault.visible_agents(round_index)
            if visible is not None:
                disp = disp[visible]
        counts = np.bincount(disp, minlength=4).astype(float)
        return delta + (counts / disp.size) * (1.0 - 4.0 * delta)

    def _apply_updates(self, due: np.ndarray) -> None:
        mem = self.memory[due]
        rng = self._rng
        new_weak = majority_with_ties(
            mem[:, SYMBOL_SOURCE_1], mem[:, SYMBOL_SOURCE_0], rng
        )
        ones = mem[:, SYMBOL_NONSOURCE_1] + mem[:, SYMBOL_SOURCE_1]
        zeros = mem[:, 0] + mem[:, SYMBOL_SOURCE_0]
        new_opinion = majority_with_ties(ones, zeros, rng)
        self.weak[due] = new_weak
        self.opinion[due] = new_opinion
        self.memory[due] = 0
        self.fill[due] = 0

    def _fraction_correct(self) -> float:
        correct = self.config.correct_opinion
        return float(np.mean(self.opinion == correct))

    # ------------------------------------------------------------------
    def run(
        self,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        adversary: object = None,
        stop_on_consensus: bool = True,
        consensus_epochs: int = 2,
        telemetry: Optional[Telemetry] = None,
    ) -> SSFRunResult:
        """Simulate SSF until consensus stabilizes or the budget runs out.

        Parameters
        ----------
        max_rounds:
            Round budget; defaults to ``20 * epoch_rounds`` (well beyond
            Theorem 5's three-epoch horizon).
        adversary:
            Optional :class:`~repro.model.adversary.AdversarialInitializer`
            applied after the clean reset.
        stop_on_consensus:
            Stop early once consensus has held for ``consensus_epochs``
            whole epochs (every agent updated at least twice while the
            population was unanimous).
        telemetry:
            Optional :class:`~repro.telemetry.Telemetry` recorder.  Emits
            an ``ssf.run`` phase timer and one ``round`` event per flush
            round (the only rounds in which opinions can change).
            RNG-neutral: results are bit-identical with telemetry on or
            off.
        """
        generator = coerce_rng(rng)
        tele = ensure_telemetry(telemetry)
        self.reset(generator)
        if adversary is not None:
            # The fast engine is positional: build a positional population
            # facade for the adversary.
            from ..model.population import Population

            population = Population(self.config, rng=generator, shuffle=False)
            adversary.apply(self, population, generator)
        self._rng = generator

        sched = self.schedule
        if max_rounds is None:
            max_rounds = 20 * sched.epoch_rounds
        h = self.config.h
        m = sched.m
        correct = self.config.correct_opinion
        patience_rounds = consensus_epochs * sched.epoch_rounds

        fault = self.fault_model
        if fault is not None and fault.is_null:
            fault = None
        eval_mask = None
        n_eval = self.config.n
        delta = self.delta
        tracker = None
        transitions: tuple = ()
        if fault is not None:
            from ..model.population import Population as _Population

            fault.reset(_Population(self.config, shuffle=False), 4, generator)
            if not fault.deterministic_displays:
                raise ConfigurationError(
                    "the fast SSF engine needs deterministic fault displays "
                    "(gap batching requires within-gap constancy); use "
                    "PullEngine for randomized display faults"
                )
            delta = _uniform_delta4(fault.effective_uniform_delta(self.delta))
            eval_mask = fault.evaluation_mask()
            if eval_mask is not None:
                n_eval = int(np.count_nonzero(eval_mask))
                if n_eval == 0:
                    raise ConfigurationError(
                        "fault model excludes every agent from evaluation"
                    )
            transitions = fault.transition_rounds()
            if correct is not None:
                from ..faults.metrics import RecoveryTracker

                tracker = RecoveryTracker(
                    fault.onset_round, fault.quasi_consensus_floor
                )

        trace: List[tuple] = []
        consensus_start: Optional[int] = None
        timer = tele.phase("ssf.run") if tele.enabled else None
        if timer is not None:
            timer.__enter__()
        t = 0
        while t < max_rounds:
            # Rounds until the next agent(s) flush: fill grows by h/round.
            rounds_to_due = np.ceil(
                np.maximum(m - self.fill, 1) / h
            ).astype(np.int64)
            gap = int(rounds_to_due.min())
            gap = min(gap, max_rounds - t)
            # Never let one batch straddle a fault transition: within the
            # capped gap the transformed displays are constant, so the
            # multinomial tallies stay exact.
            for boundary in transitions:
                if t < boundary:
                    gap = min(gap, boundary - t)
                    break
            q = self._observation_distribution(t, delta, fault)
            if self.sample_loss > 0.0:
                # Fault injection: each observation is lost independently.
                # Thinning a multinomial thins each category binomially,
                # so the kept tallies stay exact — and buffers (hence
                # update clocks) fill more slowly.
                full = generator.multinomial(gap * h, q, size=self.config.n)
                tallies = generator.binomial(full, 1.0 - self.sample_loss)
                self.memory += tallies
                self.fill += tallies.sum(axis=1)
            else:
                tallies = generator.multinomial(gap * h, q, size=self.config.n)
                self.memory += tallies
                self.fill += gap * h
            t += gap
            due = self.fill >= m
            if due.any():
                self._apply_updates(due)
                if eval_mask is None:
                    frac = self._fraction_correct()
                else:
                    frac = float(np.mean(self.opinion[eval_mask] == correct))
                trace.append((t - 1, frac))
                if tracker is not None:
                    tracker.observe(t - 1, 1.0 - frac)
                if tele.enabled:
                    tele.round(
                        t - 1,
                        num_correct=int(round(frac * n_eval)),
                        fraction_correct=frac,
                        opinions=self.opinion,
                    )
                if frac == 1.0:
                    if consensus_start is None:
                        consensus_start = t - 1
                else:
                    consensus_start = None
                if (
                    stop_on_consensus
                    and consensus_start is not None
                    and (t - 1) - consensus_start >= patience_rounds
                ):
                    break

        judged = self.opinion if eval_mask is None else self.opinion[eval_mask]
        converged = correct is not None and bool(np.all(judged == correct))
        if timer is not None:
            timer.__exit__(None, None, None)
            tele.counter("ssf.rounds", t)
            tele.counter("ssf.runs")
            if converged:
                tele.counter("ssf.converged_runs")
        if tracker is not None:
            tracker.emit(tele)
        return SSFRunResult(
            converged=converged,
            consensus_round=consensus_start if converged else None,
            rounds_executed=t,
            final_opinions=self.opinion.copy(),
            final_weak_opinions=self.weak.copy(),
            trace=trace,
            seed=seed_of(rng),
        )

    # ------------------------------------------------------------------
    # Replica batching
    # ------------------------------------------------------------------
    def run_batch(
        self,
        replicas: int,
        max_rounds: Optional[int] = None,
        rng: RngLike = None,
        stop_on_consensus: bool = True,
        consensus_epochs: int = 2,
        telemetry: Optional[Telemetry] = None,
    ) -> List[SSFRunResult]:
        """Simulate ``replicas`` independent clean-start SSF runs at once.

        From a clean start every agent's buffer fills at the same ``h``
        per round, so the flush clock is *global*: all agents of all
        replicas update in lockstep and one epoch of the whole batch is a
        single ``(R, n, 4)`` multinomial draw — the per-replica
        observation distribution broadcasts down the agent axis.
        Distributionally identical to ``replicas`` calls of :meth:`run`;
        reproducible for a fixed ``(rng, replicas)``; replicas that reach
        stable consensus leave the batch early.

        Adversarial starts and ``sample_loss > 0`` desynchronize the
        flush clocks across agents/replicas and are not supported here —
        use :meth:`run` per replica for those.
        """
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be a positive int, got {replicas}"
            )
        if self.sample_loss > 0.0:
            raise ConfigurationError(
                "run_batch requires sample_loss == 0 (lost samples "
                "desynchronize the shared flush clock); use run() per replica"
            )
        if self.fault_model is not None and not self.fault_model.is_null:
            raise ConfigurationError(
                "run_batch does not support fault models; call run() per "
                "replica (or use BatchedPullEngine)"
            )
        generator = coerce_rng(rng)
        tele = ensure_telemetry(telemetry)
        cfg, sched = self.config, self.schedule
        n, h, m = cfg.n, cfg.h, sched.m
        correct = cfg.correct_opinion
        if max_rounds is None:
            max_rounds = 20 * sched.epoch_rounds
        patience_rounds = consensus_epochs * sched.epoch_rounds

        # Clean start, replica axis first (positional sources, as in reset).
        opinion = generator.integers(0, 2, size=(replicas, n)).astype(np.int8)
        opinion[:, : cfg.s0] = 0
        opinion[:, cfg.s0 : cfg.num_sources] = 1
        weak = opinion.copy()
        memory = np.zeros((replicas, n, 4), dtype=np.int64)

        num_sources = cfg.num_sources
        scale = 1.0 - 4.0 * self.delta
        active = np.arange(replicas)
        consensus_start = np.full(replicas, -1, dtype=np.int64)
        rounds_executed = np.zeros(replicas, dtype=np.int64)
        traces: List[List[tuple]] = [[] for _ in range(replicas)]

        fill = 0  # shared across agents and replicas from a clean start
        timer = (
            tele.phase("ssf.run_batch", replicas=replicas) if tele.enabled else None
        )
        if timer is not None:
            timer.__enter__()
        t = 0
        while t < max_rounds and active.size:
            gap = max(int(np.ceil(max(m - fill, 1) / h)), 1)
            gap = min(gap, max_rounds - t)
            # Per-replica observation distribution from the display counts.
            ones = (weak[active, num_sources:] == 1).sum(axis=1)  # (A,)
            counts = np.zeros((active.size, 4), dtype=float)
            counts[:, SYMBOL_SOURCE_0] = cfg.s0
            counts[:, SYMBOL_SOURCE_1] = cfg.s1
            counts[:, SYMBOL_NONSOURCE_1] = ones
            counts[:, 0] = (n - num_sources) - ones
            q = self.delta + (counts / n) * scale  # (A, 4)
            memory[active] += generator.multinomial(
                gap * h, q[:, None, :], size=(active.size, n)
            )
            fill += gap * h
            t += gap
            rounds_executed[active] = t
            if fill >= m:
                mem = memory[active]
                flat_rng = generator
                new_weak = majority_with_ties(
                    mem[:, :, SYMBOL_SOURCE_1].ravel(),
                    mem[:, :, SYMBOL_SOURCE_0].ravel(),
                    flat_rng,
                ).reshape(active.size, n)
                vote1 = (mem[:, :, SYMBOL_NONSOURCE_1] + mem[:, :, SYMBOL_SOURCE_1]).ravel()
                vote0 = (mem[:, :, 0] + mem[:, :, SYMBOL_SOURCE_0]).ravel()
                new_opinion = majority_with_ties(vote1, vote0, flat_rng).reshape(
                    active.size, n
                )
                weak[active] = new_weak
                opinion[active] = new_opinion
                memory[active] = 0
                fill = 0
                if correct is not None:
                    fractions = np.mean(opinion[active] == correct, axis=1)
                    in_consensus = fractions == 1.0
                    consensus_start[active] = np.where(
                        in_consensus,
                        np.where(consensus_start[active] < 0, t - 1, consensus_start[active]),
                        -1,
                    )
                    for i, r in enumerate(active):
                        traces[r].append((t - 1, float(fractions[i])))
                    if tele.enabled:
                        tele.round(
                            t - 1,
                            active_replicas=int(active.size),
                            mean_fraction_correct=float(fractions.mean()),
                        )
                    if stop_on_consensus:
                        keep = ~(
                            (consensus_start[active] >= 0)
                            & ((t - 1) - consensus_start[active] >= patience_rounds)
                        )
                        if not keep.all():
                            active = active[keep]

        results = [
            SSFRunResult(
                converged=(
                    correct is not None and bool(np.all(opinion[r] == correct))
                ),
                consensus_round=(
                    int(consensus_start[r])
                    if correct is not None
                    and consensus_start[r] >= 0
                    and bool(np.all(opinion[r] == correct))
                    else None
                ),
                rounds_executed=int(rounds_executed[r]),
                final_opinions=opinion[r].copy(),
                final_weak_opinions=weak[r].copy(),
                trace=traces[r],
                seed=seed_of(rng),
            )
            for r in range(replicas)
        ]
        if timer is not None:
            timer.__exit__(None, None, None)
            tele.counter("ssf.runs", replicas)
            tele.counter(
                "ssf.converged_runs",
                sum(result.converged for result in results),
            )
        return results
