"""Vectorized Source Filter engine.

Exploits two exactness facts to simulate whole phases at once:

* Within Phase 0 (resp. Phase 1, resp. one boosting sub-phase) the
  displayed messages never change, so each agent's per-phase tally of
  observed symbols is ``Binomial(rounds * h, q)`` with
  ``q = (k/n)(1-delta) + (1-k/n) delta`` where ``k`` is the number of
  agents displaying the counted symbol — the exact model distribution,
  independent across agents (exchangeability).
* Weak opinions depend only on the agent's own samples, noise and coin
  (Lemma 28), so they may be drawn i.i.d.

One kernel (:meth:`FastSourceFilter._simulate`) runs every entry point:
a single run or ``R`` replicas along a leading axis, under one of three
observation models that only change how ``q`` is formed — ``k/n`` on
the complete graph, ``k/|visible|`` under a fault model, and
``k_i/deg_i`` per agent on a static graph.

The result is an SF simulation whose cost is ``O(n * num_subphases)``
regardless of ``h`` or the round count, making the paper's whole
``(n, h, delta, s)`` evaluation grid laptop-feasible.  Statistical
equivalence with the agent-level implementation is enforced by
``tests/test_cross_validation.py``.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Union

import numpy as np

from ..exceptions import ConfigurationError, UnsupportedFeatureError
from ..faults.base import validate_sample_loss
from ..faults.metrics import RecoveryTracker
from ..model.config import PopulationConfig
from ..model.population import Population
from ..noise import NoiseMatrix
from ..results import RunReport
from ..telemetry import Telemetry, ensure_telemetry
from ..types import RngLike, coerce_rng, seed_of
from .parameters import SFSchedule
from .ssf import majority_with_ties


def _uniform_delta(noise: Union[float, NoiseMatrix]) -> float:
    """Extract the uniform noise level for the binary alphabet."""
    if isinstance(noise, NoiseMatrix):
        if noise.size != 2:
            raise ConfigurationError("SF uses the binary alphabet (|Sigma| = 2)")
        return noise.uniform_delta
    delta = float(noise)
    if not 0.0 <= delta <= 0.5:
        raise ConfigurationError(f"uniform delta must lie in [0, 0.5], got {delta}")
    return delta


def observe_one_probability(k_displaying, n, delta: float):
    """P(one noisy observation equals the counted symbol).

    ``k_displaying`` agents display the symbol; a uniform sample hits one
    of them with probability ``k/n`` and the binary symmetric channel
    keeps/flips with probabilities ``1-delta`` / ``delta``.  Arrays
    broadcast (per-replica counts, per-agent neighbor counts/degrees).
    """
    frac = k_displaying / n
    return frac * (1.0 - delta) + (1.0 - frac) * delta


@dataclasses.dataclass
class SFRunResult(RunReport):
    """Outcome of one fast-SF execution.

    Attributes
    ----------
    converged:
        All agents ended on the correct opinion.
    total_rounds:
        Rounds the schedule occupies (SF has a fixed horizon).
    weak_opinions:
        Weak opinion vector committed at the end of Phase 1.
    weak_fraction_correct:
        Fraction of weak opinions equal to the correct opinion.
    final_opinions:
        Opinions after the final boosting sub-phase.
    boost_trace:
        Fraction of correct opinions after each boosting sub-phase
        (including the final one).
    """

    _rounds_attr = "total_rounds"

    converged: bool
    total_rounds: int
    weak_opinions: np.ndarray
    weak_fraction_correct: float
    final_opinions: np.ndarray
    boost_trace: List[float]
    seed: Optional[int] = None


@dataclasses.dataclass
class _Observation:
    """How one run turns a display vector into look probabilities.

    ``count(displays, round_index, symbol)`` is the number of samplable
    agents showing ``symbol`` out of ``pool`` (``n``, the visible
    population, or each agent's degree), so one look observes the
    symbol with probability ``observe_one_probability(count, pool,
    delta)``.  Convergence is judged over ``eval_mask`` (``None`` =
    everyone); ``tags`` label the phase timers.
    """

    count: Callable[[np.ndarray, int, int], object]
    pool: Union[int, np.ndarray]
    delta: float
    eval_mask: Optional[np.ndarray] = None
    tracker: Optional[RecoveryTracker] = None
    tags: Dict[str, object] = dataclasses.field(default_factory=dict)

    def q(self, displays: np.ndarray, round_index: int, symbol: int):
        k = self.count(displays, round_index, symbol)
        return observe_one_probability(k, self.pool, self.delta)


class FastSourceFilter:
    """Phase-at-a-time SF simulator under uniform binary noise.

    Parameters
    ----------
    config:
        Population parameters (``n``, sources, ``h``).
    noise:
        Uniform noise level ``delta`` (float) or a uniform 2x2
        :class:`NoiseMatrix`.  For non-uniform physical noise, apply
        :func:`repro.noise.noise_reduction` first and pass
        ``reduction.delta_prime``.
    schedule:
        Optional pre-built :class:`SFSchedule`; by default Eq. (19) with
        the calibrated constant.
    fault_model:
        Optional :class:`~repro.faults.FaultModel`.  ``None`` or a null
        model runs the complete-graph observation model (bit-identical
        either way); otherwise each phase's observation probabilities
        are recomputed from the transformed display vector over the
        visible agents.  Only time-invariant, deterministic-display
        faults are supported here (the exactness argument needs
        within-phase constancy) — use :class:`~repro.model.PullEngine`
        for the rest.  A :class:`~repro.faults.NoiseMisspecification`
        makes the schedule derive from the assumed ``noise`` while the
        dynamics run at the true level.
    topology:
        Optional topology spec (:func:`~repro.topology.create_topology`).
        ``None``/complete keeps the complete-graph model (bit-identical);
        a static graph switches to per-agent observation probabilities
        from neighbor symbol counts.  Dynamic (churn) topologies and
        graph+fault combinations raise
        :class:`~repro.exceptions.UnsupportedFeatureError`.
    """

    def __init__(
        self,
        config: PopulationConfig,
        noise: Union[float, NoiseMatrix],
        schedule: Optional[SFSchedule] = None,
        constant: Optional[float] = None,
        sample_loss: float = 0.0,
        fault_model=None,
        topology=None,
    ) -> None:
        self.config = config
        self.delta = _uniform_delta(noise)
        self.sample_loss = validate_sample_loss(sample_loss)
        self.fault_model = fault_model
        self.topology = topology
        sampler = self._graph_sampler()
        if sampler is not None:
            if sampler.dynamic:
                raise UnsupportedFeatureError(
                    f"the fast SF engine simulates whole phases in "
                    f"one draw and needs a static graph; dynamic "
                    f"topology {sampler.kind!r} requires the serial "
                    f"PullEngine"
                )
            if self._active_fault() is not None:
                raise UnsupportedFeatureError(
                    "the fast SF engine composes a graph topology or "
                    "a fault model, not both (the fault seam counts "
                    "symbols over the globally-visible population)"
                )
        if schedule is None:
            kwargs = {} if constant is None else {"constant": constant}
            schedule = SFSchedule.from_config(config, self.delta, **kwargs)
        self.schedule = schedule

    # ------------------------------------------------------------------
    # Observation models (built once per run)
    # ------------------------------------------------------------------
    def _active_fault(self):
        fault = self.fault_model
        return None if fault is None or fault.is_null else fault

    def _graph_sampler(self):
        """The topology sampler when it is a real graph, else ``None``."""
        if self.topology is None:
            return None
        from ..topology import create_topology

        sampler = create_topology(self.topology)
        return None if sampler.is_uniform else sampler

    def _complete_observation(self) -> _Observation:
        def count(displays, round_index, symbol):
            k = np.count_nonzero(displays == symbol, axis=-1)
            # One run keeps a scalar k: numpy's binomial draws the same
            # stream for a scalar p and a broadcast p-array, but the
            # scalar path skips the per-element broadcast loop.
            return k if displays.ndim == 1 else k[:, None]

        return _Observation(count, self.config.n, self.delta)

    def _observation(self, generator: np.random.Generator) -> _Observation:
        """This run's observation model; may draw from ``generator``.

        Faulted: symbol counts over the *visible* agents after the fault
        model's display transform, at the true channel level.  Graph:
        per-agent neighbor counts over degrees.  The engine is
        positional either way — agents ``0..s0-1`` are the 0-preferring
        sources and ``s0..s-1`` the 1-preferring ones, on whatever graph
        nodes carry those labels (random families label nodes randomly,
        so this is a uniformly random placement).  A string/unbound
        graph spec realizes a fresh graph from the run generator every
        run; a pre-bound sampler pins one quenched graph across runs.
        """
        cfg, sched = self.config, self.schedule
        fault = self._active_fault()
        if fault is not None:
            fault.reset(Population(cfg, shuffle=False), 2, generator)
            if not fault.deterministic_displays:
                raise ConfigurationError(
                    "the fast SF engine needs deterministic fault displays "
                    "(within-phase constancy is its exactness argument); use "
                    "PullEngine for randomized display faults"
                )
            if any(r < sched.total_rounds for r in fault.transition_rounds()):
                raise ConfigurationError(
                    "the fast SF engine simulates whole phases in one draw and "
                    "supports only time-invariant fault models; use PullEngine "
                    "or the fast SSF engine for scheduled crash/recovery faults"
                )
            visible = fault.visible_agents(0)
            eval_mask = fault.evaluation_mask()
            if eval_mask is not None and not eval_mask.any():
                raise ConfigurationError(
                    "fault model excludes every agent from evaluation"
                )

            def count(displays, round_index, symbol):
                shown = np.asarray(
                    fault.transform_displays(round_index, displays, generator)
                )
                if visible is not None:
                    shown = shown[visible]
                return int(np.count_nonzero(shown == symbol))

            tracker = None
            if cfg.correct_opinion is not None:
                tracker = RecoveryTracker(
                    fault.onset_round, fault.quasi_consensus_floor
                )
            return _Observation(
                count,
                cfg.n if visible is None else np.asarray(visible).size,
                _uniform_delta(fault.effective_uniform_delta(self.delta)),
                eval_mask,
                tracker,
            )
        sampler = self._graph_sampler()
        if sampler is not None:
            sampler.ensure_bound(cfg.n, generator)
            return _Observation(
                lambda displays, round_index, symbol: (
                    sampler.neighbor_symbol_counts(displays, symbol)
                ),
                sampler.degrees().astype(np.float64),
                self.delta,
                tags={"topology": sampler.kind},
            )
        return self._complete_observation()

    # ------------------------------------------------------------------
    # The two stages, over an optional leading replica axis
    # ------------------------------------------------------------------
    def _listen(
        self, obs: _Observation, shape: tuple, generator: np.random.Generator
    ) -> np.ndarray:
        """Phases 0 and 1: the weak-opinion array of ``shape``.

        Counter1 counts 1s while sources display preferences and
        non-sources display 0; Counter0 counts 0s while non-sources
        display 1 (sources keep their preference).
        """
        cfg, sched = self.config, self.schedule
        samples = sched.phase_rounds * sched.h
        keep = 1.0 - self.sample_loss
        phase0 = np.zeros(cfg.n, dtype=np.int8)
        phase0[cfg.s0 : cfg.num_sources] = 1
        phase1 = np.ones(cfg.n, dtype=np.int8)
        phase1[: cfg.s0] = 0
        # Fault injection (extension): each observation is independently
        # lost with probability sample_loss, so the count of counted
        # symbols among attempted samples is Binomial(samples, keep * q).
        q1 = keep * obs.q(phase0, 0, 1)
        q0 = keep * obs.q(phase1, sched.phase_rounds, 0)
        counter1 = generator.binomial(samples, q1, size=shape)
        counter0 = generator.binomial(samples, q0, size=shape)
        return majority_with_ties(counter1, counter0, generator)

    def _boost(
        self,
        obs: _Observation,
        opinions: np.ndarray,
        window: int,
        round_index: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """One majority sub-phase starting at ``round_index``."""
        q = obs.q(opinions, round_index, 1)
        if self.sample_loss > 0.0:
            # Lost observations shrink each agent's window; the majority
            # is over the messages actually received.
            window = generator.binomial(
                window, 1.0 - self.sample_loss, size=opinions.shape
            )
        counts = generator.binomial(window, q, size=opinions.shape)
        return majority_with_ties(2 * counts, window, generator)

    def draw_weak_opinions(self, rng: RngLike = None) -> np.ndarray:
        """Draw the i.i.d. weak-opinion vector (end of Phase 1) on the
        complete graph."""
        return self._listen(
            self._complete_observation(), (self.config.n,), coerce_rng(rng)
        )

    def boost_step(
        self, opinions: np.ndarray, window: int, rng: RngLike = None
    ) -> np.ndarray:
        """One majority sub-phase on the complete graph: everyone
        displays, gathers, takes majority."""
        return self._boost(
            self._complete_observation(), opinions, window, 0, coerce_rng(rng)
        )

    # ------------------------------------------------------------------
    # The kernel
    # ------------------------------------------------------------------
    def _simulate(
        self,
        obs: _Observation,
        generator: np.random.Generator,
        tele: Telemetry,
        seed: Optional[int],
        replicas: Optional[int] = None,
    ) -> List[SFRunResult]:
        """Run Algorithm 1 once (``replicas=None``) or ``replicas`` times
        along a leading axis; one :class:`SFRunResult` per run."""
        cfg, sched = self.config, self.schedule
        correct = cfg.correct_opinion
        runs = 1 if replicas is None else replicas
        shape = (cfg.n,) if replicas is None else (replicas, cfg.n)
        tags = obs.tags if replicas is None else {**obs.tags, "replicas": replicas}
        judged_n = cfg.n if obs.eval_mask is None else int(obs.eval_mask.sum())

        def is_correct(opinions: np.ndarray) -> np.ndarray:
            if obs.eval_mask is not None:
                opinions = np.compress(obs.eval_mask, opinions, axis=-1)
            return opinions == correct

        def record(round_index, opinions, fraction, **phase) -> None:
            if replicas is None:
                fraction = float(fraction)
                metrics = {
                    "num_correct": int(round(fraction * judged_n)),
                    "fraction_correct": fraction,
                    "opinions": opinions,
                }
            else:
                mean = float(np.mean(fraction))
                metrics = {"replicas": replicas, "mean_fraction_correct": mean}
            if obs.tracker is not None:
                obs.tracker.observe(round_index, 1.0 - fraction)
            if tele.enabled:
                tele.round(round_index, **phase, **metrics)

        with tele.phase("sf.phase01_weak", rounds=2 * sched.phase_rounds, **tags):
            weak = self._listen(obs, shape, generator)
        if correct is not None:
            weak_fraction = np.mean(is_correct(weak), axis=-1)
        else:
            weak_fraction = np.full(shape[:-1], 0.5)
        if tele.enabled:
            tele.gauge("sf.weak_fraction_correct", float(np.mean(weak_fraction)))
        record(2 * sched.phase_rounds - 1, weak, weak_fraction, phase="phase1")

        steps = [
            (sched.subphase_rounds, {"phase": "boosting", "subphase": index})
            for index in range(sched.num_subphases)
        ]
        steps.append((sched.final_rounds, {"phase": "boosting_final"}))
        opinions = weak.copy()
        history: List[np.ndarray] = []
        start = 2 * sched.phase_rounds
        with tele.phase("sf.boosting", rounds=sched.boosting_rounds, **tags):
            for rounds, phase in steps:
                opinions = self._boost(
                    obs, opinions, rounds * sched.h, start, generator
                )
                start += rounds
                if correct is not None:
                    fraction = np.mean(is_correct(opinions), axis=-1)
                    history.append(fraction)
                    record(start - 1, opinions, fraction, **phase)

        if correct is not None:
            converged = np.all(is_correct(opinions), axis=-1)
        else:
            converged = np.zeros(shape[:-1], dtype=bool)
        if tele.enabled:
            tele.counter("sf.runs", runs)
            tele.counter("sf.converged_runs", int(np.count_nonzero(converged)))
        if obs.tracker is not None:
            obs.tracker.emit(tele)
        traces = np.asarray(history, dtype=np.float64).reshape(-1, runs).T
        return [
            SFRunResult(
                converged=bool(done),
                total_rounds=sched.total_rounds,
                weak_opinions=weak_row.copy(),
                weak_fraction_correct=float(fraction),
                final_opinions=final_row.copy(),
                boost_trace=trace.tolist(),
                seed=seed,
            )
            for done, weak_row, fraction, final_row, trace in zip(
                np.reshape(converged, -1),
                weak.reshape(runs, -1),
                np.reshape(weak_fraction, -1),
                opinions.reshape(runs, -1),
                traces,
            )
        ]

    def run(
        self, rng: RngLike = None, telemetry: Optional[Telemetry] = None
    ) -> SFRunResult:
        """Execute one full SF run and report the outcome.

        ``telemetry`` (optional, RNG-neutral) receives the per-phase
        timers of Algorithm 1 — ``sf.phase01_weak`` for Phases 0/1 and
        ``sf.boosting`` for the Majority Boosting phase — plus one
        ``round`` event per boosting sub-phase, indexed by the last model
        round the sub-phase occupies.  Within a sub-phase no displayed
        message changes, so these events determine the opinion counts of
        *every* model round, not just the sampled ones.  Under a fault
        model the fractions are over the judged agents and recovery
        metrics are emitted as ``faults.*`` telemetry.
        """
        generator = coerce_rng(rng)
        tele = ensure_telemetry(telemetry)
        obs = self._observation(generator)
        return self._simulate(obs, generator, tele, seed_of(rng))[0]

    def run_batch(
        self,
        replicas: int,
        rng: RngLike = None,
        telemetry: Optional[Telemetry] = None,
    ) -> List[SFRunResult]:
        """Execute ``replicas`` independent SF runs in batched numpy ops.

        Distributionally identical to ``replicas`` calls of :meth:`run`
        — every draw is the same Binomial, broadcast across a leading
        replica axis — and reproducible for a fixed ``(rng, replicas)``
        pair, but drawn from a single shared stream (results are not
        stream-identical to serial :meth:`run` calls).  ``telemetry``
        (optional, RNG-neutral) receives the same phase timers as
        :meth:`run` plus per-sub-phase ``round`` events carrying the
        batch-mean correct fraction.

        Returns one :class:`SFRunResult` per replica, in replica order.
        """
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be a positive int, got {replicas}"
            )
        if self._active_fault() is not None:
            raise ConfigurationError(
                "run_batch does not support fault models; call run() per "
                "replica (or use BatchedPullEngine)"
            )
        if self._graph_sampler() is not None:
            raise UnsupportedFeatureError(
                "run_batch does not support graph topologies; call "
                "run() per replica (each realizes its own graph) or "
                "use BatchedPullEngine with topology="
            )
        return self._simulate(
            self._complete_observation(),
            coerce_rng(rng),
            ensure_telemetry(telemetry),
            seed_of(rng),
            replicas,
        )
