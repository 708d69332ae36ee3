"""Replica-batched exact noisy PULL(h) engine.

Monte-Carlo sweeps run the same configuration dozens to hundreds of
times.  :class:`~repro.model.engine.PullEngine` simulates one replica at
a time, so a 64-trial sweep pays the per-round numpy dispatch overhead
64 times over.  :class:`BatchedPullEngine` simulates ``R`` *independent*
replicas of the exact Section-1.3 round loop simultaneously: per-agent
state becomes ``(R, n)``, the round's samples become ``(R, n, h)``, and
the noise channel corrupts the whole batch in one CDF inversion.  Every
replica still follows the literal model — explicit sample indices, one
independent noise event per observation — only the Python-level loop
over replicas is amortized.

Two seeding disciplines are offered (``rng_mode``):

``"spawn"`` (default)
    Replica ``r`` draws every variate from its own generator, seeded
    from ``SeedSequence(seed).spawn(R)[r]`` — the exact discipline of
    :func:`repro.rng.spawn_generators`.  A batched run is therefore
    **bit-identical** to ``R`` serial :class:`PullEngine` runs with the
    matching spawned seeds, and invariant under any split of ``R``
    across batched calls (pass the corresponding ``seed_sequences``).
    Sampling costs ``O(R)`` generator calls per round; everything else
    is fully batched.

``"shared"``
    All replicas' samples are drawn from a single generator in one
    ``Generator.integers`` call over ``(R, n, h)`` and one uniform block
    for the noise.  Fastest; reproducible for a fixed ``(seed, R)`` but
    not stream-identical to serial runs.

Replicas that satisfy the early-stopping rule leave the active set and
stop consuming randomness, so ``"spawn"`` bit-identity survives early
exits.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Union

import numpy as np

from ..exceptions import ProtocolError
from ..telemetry import Telemetry, ensure_telemetry
from ..types import merge_rng_seed, seed_of
from .engine import RoundRecord, SimulationResult
from .population import Population

__all__ = ["BatchedPullProtocol", "BatchedPullEngine"]

SeedLike = Union[int, np.random.SeedSequence, None]


class BatchedPullProtocol(abc.ABC):
    """Interface a protocol must implement to run on :class:`BatchedPullEngine`.

    The contract mirrors :class:`~repro.model.engine.PullProtocol` with a
    leading replica axis: state arrays are ``(R, n)`` and each round's
    observations arrive as one ``(A, n, h)`` block for the ``A`` replicas
    still active.  Any replica-local coin flips (tie-breaking) must be
    drawn from that replica's generator so that ``"spawn"`` runs stay
    bit-identical to serial ones.
    """

    #: Size of the communication alphabet Sigma (symbols ``0..d-1``).
    alphabet_size: int = 2

    @abc.abstractmethod
    def reset(
        self, population: Population, rngs: Sequence[np.random.Generator]
    ) -> None:
        """(Re-)initialize state for ``len(rngs)`` replicas of ``population``."""

    @abc.abstractmethod
    def displays(self, round_index: int) -> np.ndarray:
        """Messages displayed this round — ``(R, n)`` ints in Sigma.

        A read-only broadcast view is acceptable when all replicas
        display the same messages.
        """

    @abc.abstractmethod
    def receive(
        self, round_index: int, observations: np.ndarray, replicas: np.ndarray
    ) -> None:
        """Process noisy observations for the active replicas.

        ``observations`` is ``(A, n, h)``; ``replicas`` holds the ``A``
        replica indices the rows belong to (ascending).
        """

    @abc.abstractmethod
    def opinions(self) -> np.ndarray:
        """Current opinion matrix, ``(R, n)`` ints in {0, 1}."""

    def finished(self, round_index: int) -> bool:
        """True when the protocol has a fixed horizon and it has passed."""
        return False


def _spawn_generators(
    replicas: Optional[int],
    rng: SeedLike,
    seed_sequences: Optional[Sequence[np.random.SeedSequence]],
) -> List[np.random.Generator]:
    """Resolve the per-replica generators from either seeding input."""
    if seed_sequences is not None:
        if replicas is not None and replicas != len(seed_sequences):
            raise ValueError(
                f"replicas={replicas} does not match "
                f"{len(seed_sequences)} seed sequences"
            )
        return [np.random.default_rng(s) for s in seed_sequences]
    if replicas is None or replicas < 1:
        raise ValueError(f"replicas must be a positive int, got {replicas}")
    if isinstance(rng, np.random.Generator):
        raise TypeError(
            "BatchedPullEngine needs a seed or SeedSequence, not a live "
            "Generator: per-replica streams are spawned from the root so "
            "results are reproducible and split-invariant"
        )
    root = rng if isinstance(rng, np.random.SeedSequence) else np.random.SeedSequence(rng)
    return [np.random.default_rng(s) for s in root.spawn(replicas)]


class BatchedPullEngine:
    """Drives a :class:`BatchedPullProtocol` over R replicas of one population.

    All replicas share the same :class:`Population` (roles and
    preferences) and noise channel; their randomness — initial opinions,
    samples, noise, coin flips — is independent.  ``noise`` may be a
    :class:`~repro.noise.NoiseMatrix` or a schedule exposing
    ``matrix_at(round_index)``, exactly as for :class:`PullEngine`.
    """

    def __init__(self, population: Population, noise) -> None:
        self.population = population
        self.noise = noise
        self._matrix_at = getattr(noise, "matrix_at", None)

    def run(
        self,
        protocol: BatchedPullProtocol,
        max_rounds: int,
        replicas: Optional[int] = None,
        rng: SeedLike = None,
        *,
        seed_sequences: Optional[Sequence[np.random.SeedSequence]] = None,
        rng_mode: str = "spawn",
        stop_on_consensus: bool = False,
        consensus_patience: int = 0,
        record_trace: bool = False,
        telemetry: Optional[Telemetry] = None,
        fault_model=None,
        seed: Optional[int] = None,
        topology=None,
    ) -> List[SimulationResult]:
        """Simulate up to ``max_rounds`` rounds of every replica.

        Parameters
        ----------
        replicas:
            Number of independent replicas R.  May be omitted when
            ``seed_sequences`` is given.
        rng:
            Root seed (int, :class:`numpy.random.SeedSequence` or None);
            replica ``r`` runs on ``SeedSequence(rng).spawn(R)[r]``.
        seed_sequences:
            Explicit per-replica seed sequences — use this to split one
            logical batch across several calls (any split yields the
            same per-replica results in ``"spawn"`` mode).
        rng_mode:
            ``"spawn"`` (bit-identical to serial runs) or ``"shared"``
            (single-generator bulk sampling, fastest).  See the module
            docstring.
        stop_on_consensus / consensus_patience:
            Per-replica early exit with the same semantics as
            :meth:`PullEngine.run`: a replica stops once consensus has
            held for ``consensus_patience + 1`` consecutive rounds.
        telemetry:
            Optional :class:`~repro.telemetry.Telemetry` recorder.  Per
            round, one ``round`` event with the active-replica count and
            the batch-mean correct fraction; per run, a
            ``batched_engine.run`` phase timer and replica counters.
            RNG-neutral: results are bit-identical with telemetry on or
            off.
        fault_model:
            Optional :class:`~repro.faults.FaultModel`.  One faulty
            subset is resolved per *batch* (from a generator spawned off
            the root seed — child ``R`` of the root sequence, so it
            never collides with a replica stream) and shared by all
            replicas; per-round display transforms run per replica with
            that replica's generator in ``"spawn"`` mode.  ``None``
            keeps the byte-identical legacy path and the identity model
            is bit-for-bit equivalent to it.  Models whose faulty set is
            random make spawn-mode runs diverge from serial runs (the
            serial engine resolves the set from the run generator) —
            pass explicit ``agents=`` when cross-engine bit-identity
            matters.
        topology:
            Optional :class:`~repro.topology.TopologySampler` (or spec)
            restricting samples to graph neighbors.  The whole batch
            shares *one* realized graph (quenched disorder): an unbound
            sampler binds from child ``R`` of the root sequence — the
            same slot fault models use, which is why a graph topology
            does not compose with ``fault_model`` here (typed
            :class:`~repro.exceptions.UnsupportedFeatureError`); use the
            serial engine per replica for independent graph draws.
            Dynamic (churn) topologies are likewise rejected — their
            evolution has no replica-safe stream.  ``None`` and the
            complete graph keep the untouched, bit-identical path.

        Returns
        -------
        One :class:`SimulationResult` per replica, in replica order.
        """
        rng = merge_rng_seed(rng, seed)
        if rng_mode not in ("spawn", "shared"):
            raise ValueError(f"rng_mode must be 'spawn' or 'shared', got {rng_mode!r}")
        if protocol.alphabet_size != self.noise.size:
            raise ProtocolError(
                f"protocol alphabet size {protocol.alphabet_size} does not match "
                f"noise matrix size {self.noise.size}"
            )
        generators = _spawn_generators(replicas, rng, seed_sequences)
        num_replicas = len(generators)
        tele = ensure_telemetry(telemetry)
        bulk: Optional[np.random.Generator] = None
        if rng_mode == "shared":
            root = (
                rng
                if isinstance(rng, np.random.SeedSequence)
                else np.random.SeedSequence(rng)
            )
            bulk = np.random.default_rng(root)

        population = self.population
        n, h = population.n, population.h
        correct = population.correct_opinion

        sampler = None
        if topology is not None:
            from ..exceptions import UnsupportedFeatureError
            from ..topology import create_topology

            sampler = create_topology(topology)
            if sampler.is_uniform:
                sampler.ensure_bound(n)
                sampler = None
            else:
                if fault_model is not None:
                    raise UnsupportedFeatureError(
                        "BatchedPullEngine composes a graph topology or a "
                        "fault model, not both: each binds its randomness "
                        "to child R of the root seed sequence — run the "
                        "serial engine per replica instead"
                    )
                if sampler.dynamic:
                    raise UnsupportedFeatureError(
                        f"dynamic topology {sampler.kind!r} has no "
                        f"replica-safe evolution stream in the batched "
                        f"engine; use the serial PullEngine"
                    )
                if seed_sequences is not None:
                    topo_root = seed_sequences[0].spawn(1)[0]
                elif isinstance(rng, np.random.SeedSequence):
                    # Children 0..R-1 belong to the replicas; the next
                    # spawn is child R (the fault-model slot, free here).
                    topo_root = rng.spawn(1)[0]
                else:
                    topo_root = np.random.SeedSequence(rng).spawn(
                        num_replicas + 1
                    )[-1]
                sampler.ensure_bound(n, np.random.default_rng(topo_root))

        protocol.reset(population, generators)

        eval_mask = None
        n_eval = n
        trackers = None
        if fault_model is not None:
            if seed_sequences is not None:
                fault_root = seed_sequences[0].spawn(1)[0]
            elif isinstance(rng, np.random.SeedSequence):
                # _spawn_generators already consumed children 0..R-1 of
                # this very object, so the next spawn is child R.
                fault_root = rng.spawn(1)[0]
            else:
                fault_root = np.random.SeedSequence(rng).spawn(num_replicas + 1)[-1]
            fault_model.reset(
                population, protocol.alphabet_size, np.random.default_rng(fault_root)
            )
            eval_mask = fault_model.evaluation_mask()
            if eval_mask is not None:
                n_eval = int(np.count_nonzero(eval_mask))
                if n_eval == 0:
                    raise ProtocolError(
                        "fault model excludes every agent from evaluation"
                    )
            if correct is not None:
                from ..faults.metrics import RecoveryTracker

                trackers = [
                    RecoveryTracker(
                        fault_model.onset_round,
                        fault_model.quasi_consensus_floor,
                    )
                    for _ in range(num_replicas)
                ]

        active = np.arange(num_replicas)
        streak = np.zeros(num_replicas, dtype=np.int64)
        consensus_start = np.full(num_replicas, -1, dtype=np.int64)
        rounds_executed = np.zeros(num_replicas, dtype=np.int64)
        traces: List[List[RoundRecord]] = [[] for _ in range(num_replicas)]

        timer = tele.phase("batched_engine.run", replicas=num_replicas) if tele.enabled else None
        if timer is not None:
            timer.__enter__()
        for t in range(max_rounds):
            if active.size == 0:
                break
            if protocol.finished(t):
                # Mirror the serial engine: a horizon hit before round t
                # means only t rounds were executed.
                rounds_executed[active] = t
                break
            displayed = np.asarray(protocol.displays(t))  # (R, n)
            num_active = active.size
            all_active = num_active == num_replicas
            rows = displayed if all_active else displayed[active]
            visible = (
                fault_model.visible_agents(t) if fault_model is not None else None
            )
            pool = n if visible is None else visible.size
            if rng_mode == "spawn":
                sampled = np.empty((num_active, n * h), dtype=np.int64)
                uniforms = np.empty((num_active, n * h))
                if fault_model is not None:
                    faulted_rows: list = [None] * num_active
                    rows_changed = False
                for i, r in enumerate(active):
                    g = generators[r]
                    if fault_model is not None:
                        # Replica r's transform draws come from its own
                        # generator *before* its sampling draws — the
                        # serial engine's order, so spawn bit-identity
                        # survives deterministic faults.
                        row = rows[i]
                        faulted = fault_model.transform_displays(t, row, g)
                        rows_changed |= faulted is not row
                        faulted_rows[i] = faulted
                    if sampler is not None:
                        sampled[i] = sampler.sample(None, h, g).reshape(n * h)
                    else:
                        sampled[i] = g.integers(0, pool, size=(n, h)).reshape(n * h)
                    uniforms[i] = g.random(n * h)
                if fault_model is not None and rows_changed:
                    rows = np.stack(faulted_rows)
            else:
                if fault_model is not None:
                    faulted_rows = [None] * num_active
                    rows_changed = False
                    for i in range(num_active):
                        row = rows[i]
                        faulted = fault_model.transform_displays(t, row, bulk)
                        rows_changed |= faulted is not row
                        faulted_rows[i] = faulted
                    if rows_changed:
                        rows = np.stack(faulted_rows)
                if sampler is not None:
                    sampled = np.empty((num_active, n * h), dtype=np.int64)
                    for i in range(num_active):
                        sampled[i] = sampler.sample(None, h, bulk).reshape(n * h)
                else:
                    # Default (intp) dtype, so the gather below takes the
                    # indices as drawn; an ``int32`` draw gives the same
                    # values but costs a conversion every round.
                    sampled = bulk.integers(0, pool, size=(num_active, n * h))
                uniforms = bulk.random(num_active * n * h)
            if visible is not None:
                sampled = visible[sampled]
            if rows.ndim == 2 and rows.strides[0] == 0:
                # Broadcast displays (all replicas show the same messages,
                # e.g. SF listening phases): one 1-D gather, no row offsets.
                gathered = rows[0].take(sampled)
            else:
                # Row-wise gather as one flat 1-D take — measurably
                # cheaper than np.take_along_axis at large n*h.
                rows_c = np.ascontiguousarray(rows)
                offsets = np.arange(num_active, dtype=np.int64) * rows_c.shape[1]
                gathered = rows_c.reshape(-1).take(sampled + offsets[:, None])
            channel = self._matrix_at(t) if self._matrix_at else self.noise
            if fault_model is not None:
                channel = fault_model.channel(t, channel)
            observations = channel.corrupt_with_uniforms(
                gathered, uniforms, dtype=np.int8
            ).reshape(num_active, n, h)
            protocol.receive(t, observations, active)
            rounds_executed[active] = t + 1

            if correct is not None:
                opinions = protocol.opinions()
                active_opinions = opinions if all_active else opinions[active]
                judged = (
                    active_opinions
                    if eval_mask is None
                    else active_opinions[:, eval_mask]
                )
                all_correct = np.all(judged == correct, axis=1)
                streak[active] = np.where(all_correct, streak[active] + 1, 0)
                consensus_start[active] = np.where(
                    all_correct,
                    np.where(consensus_start[active] < 0, t, consensus_start[active]),
                    -1,
                )
                if record_trace or tele.enabled or trackers is not None:
                    num_correct = np.sum(judged == correct, axis=1)
                    if trackers is not None:
                        for i, r in enumerate(active):
                            trackers[r].observe(
                                t, 1.0 - int(num_correct[i]) / n_eval
                            )
                    if record_trace:
                        for i, r in enumerate(active):
                            traces[r].append(
                                RoundRecord(
                                    t,
                                    int(num_correct[i]) / n_eval,
                                    int(num_correct[i]),
                                )
                            )
                    if tele.enabled:
                        tele.round(
                            t,
                            active_replicas=int(num_active),
                            mean_fraction_correct=float(num_correct.mean()) / n_eval,
                            converged_replicas=int(np.count_nonzero(all_correct)),
                        )
                if stop_on_consensus:
                    keep = streak[active] < consensus_patience + 1
                    if not keep.all():
                        active = active[keep]

        final = np.asarray(protocol.opinions())
        seed = seed_of(rng) if seed_sequences is None else None
        results: List[SimulationResult] = []
        for r in range(num_replicas):
            opinions_r = final[r].copy()
            judged_r = opinions_r if eval_mask is None else opinions_r[eval_mask]
            converged = correct is not None and bool(np.all(judged_r == correct))
            results.append(
                SimulationResult(
                    converged=converged,
                    consensus_round=(
                        int(consensus_start[r])
                        if converged and consensus_start[r] >= 0
                        else None
                    ),
                    rounds_executed=int(rounds_executed[r]),
                    final_opinions=opinions_r,
                    trace=traces[r],
                    seed=seed,
                )
            )
        if timer is not None:
            timer.__exit__(None, None, None)
            tele.counter("batched_engine.runs")
            tele.counter("batched_engine.replicas", num_replicas)
            tele.counter(
                "batched_engine.converged_replicas",
                sum(result.converged for result in results),
            )
        if trackers is not None:
            from ..faults.metrics import emit_recovery_batch

            emit_recovery_batch(trackers, tele)
        return results
