"""Replica-batched Source Filter for :class:`~repro.model.BatchedPullEngine`.

The same Algorithm 1 as :class:`~repro.protocols.sf.SourceFilterProtocol`
with a leading replica axis on every state array.  All replicas share the
population (roles, preferences) and the round schedule — the phase a
round belongs to depends only on the round index — so the per-round
tallies vectorize across replicas with no semantic change.  Replica-local
coin flips (initial opinions, tie-breaking) are drawn from each replica's
own generator in the same order as the serial protocol, which is what
makes a ``rng_mode="spawn"`` batched run bit-identical to serial runs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..exceptions import ProtocolError
from ..model.batched_engine import BatchedPullProtocol
from ..model.population import Population
from .parameters import SFSchedule


class BatchedSourceFilter(BatchedPullProtocol):
    """R-replica agent-level SF (Algorithm 1), state shape ``(R, n)``."""

    alphabet_size = 2

    def __init__(self, schedule: SFSchedule) -> None:
        self.schedule = schedule
        self._population: Population = None
        self._rngs: List[np.random.Generator] = None
        self._counter0: np.ndarray = None
        self._counter1: np.ndarray = None
        self._opinions: np.ndarray = None
        self._weak_opinions: np.ndarray = None
        self._boost_counts_1: np.ndarray = None
        self._boost_total: np.ndarray = None

    # ------------------------------------------------------------------
    def reset(
        self, population: Population, rngs: Sequence[np.random.Generator]
    ) -> None:
        if population.h != self.schedule.h:
            raise ProtocolError(
                f"schedule was built for h={self.schedule.h}, population has "
                f"h={population.h}"
            )
        self._population = population
        self._rngs = list(rngs)
        num_replicas, n = len(self._rngs), population.n
        self._counter0 = np.zeros((num_replicas, n), dtype=np.int64)
        self._counter1 = np.zeros((num_replicas, n), dtype=np.int64)
        opinions = np.empty((num_replicas, n), dtype=np.int8)
        for r, generator in enumerate(self._rngs):
            opinions[r] = population.initial_opinions(generator)
        self._opinions = opinions
        self._weak_opinions = None
        self._boost_counts_1 = np.zeros((num_replicas, n), dtype=np.int64)
        self._boost_total = np.zeros(num_replicas, dtype=np.int64)

    def _require_reset(self) -> None:
        if self._population is None:
            raise ProtocolError("protocol must be reset before use")

    # ------------------------------------------------------------------
    def displays(self, round_index: int) -> np.ndarray:
        self._require_reset()
        stage = self.schedule.phase_of(round_index)
        pop = self._population
        if stage == "boosting":
            return self._opinions
        if stage == "phase0":
            base = np.zeros(pop.n, dtype=np.int8)
        elif stage == "phase1":
            base = np.ones(pop.n, dtype=np.int8)
        else:
            raise ProtocolError(f"round {round_index} is past the SF horizon")
        mask = pop.is_source
        base[mask] = pop.preferences[mask]
        # Listening-phase displays do not depend on replica state: hand
        # the engine a read-only broadcast view instead of R copies.
        return np.broadcast_to(base, (len(self._rngs), pop.n))

    def receive(
        self, round_index: int, observations: np.ndarray, replicas: np.ndarray
    ) -> None:
        self._require_reset()
        schedule = self.schedule
        stage = schedule.phase_of(round_index)
        obs = np.asarray(observations)
        # Binary alphabet: the per-agent tally of observed 1s is a plain
        # sum; observed 0s are the complement of the h draws.  The sum
        # runs in the smallest unsigned integer that holds h, which
        # reduces the int8 buffer faster than an int64 accumulator.
        ones = obs.sum(axis=2, dtype=np.min_scalar_type(obs.shape[2]))
        all_active = replicas.size == self._counter1.shape[0]
        if stage == "phase0":
            if all_active:
                self._counter1 += ones
            else:
                self._counter1[replicas] += ones
        elif stage == "phase1":
            if all_active:
                self._counter0 += obs.shape[2] - ones
            else:
                self._counter0[replicas] += obs.shape[2] - ones
            if round_index == 2 * schedule.phase_rounds - 1:
                self._commit_weak_opinions(replicas)
        elif stage == "boosting":
            if all_active:
                self._boost_counts_1 += ones
            else:
                self._boost_counts_1[replicas] += ones
            self._boost_total[replicas] += obs.shape[2]
            self._maybe_end_subphase(round_index, replicas)
        else:
            raise ProtocolError(f"round {round_index} is past the SF horizon")

    def _break_ties(
        self, new: np.ndarray, ties: np.ndarray, replicas: np.ndarray
    ) -> None:
        """Fair-coin rows of ``new`` where ``ties``, per-replica streams.

        Draw order within each replica matches the serial protocol (one
        ``integers(0, 2, ties)`` call, only when ties exist).
        """
        for i, r in enumerate(replicas):
            row_ties = ties[i]
            if row_ties.any():
                new[i, row_ties] = (
                    self._rngs[r]
                    .integers(0, 2, size=int(row_ties.sum()))
                    .astype(np.int8)
                )

    def _commit_weak_opinions(self, replicas: np.ndarray) -> None:
        """End of Phase 1: Y_hat = 1{Counter1 > Counter0}, coin on ties."""
        counter1 = self._counter1[replicas]
        counter0 = self._counter0[replicas]
        weak = (counter1 > counter0).astype(np.int8)
        self._break_ties(weak, counter1 == counter0, replicas)
        if self._weak_opinions is None:
            self._weak_opinions = np.zeros_like(self._opinions)
        self._weak_opinions[replicas] = weak
        self._opinions[replicas] = weak

    def _maybe_end_subphase(self, round_index: int, replicas: np.ndarray) -> None:
        schedule = self.schedule
        boost_start = 2 * schedule.phase_rounds
        local = round_index - boost_start + 1  # rounds completed in boosting
        short_total = schedule.subphase_rounds * schedule.num_subphases
        if local <= short_total:
            ends_now = local % schedule.subphase_rounds == 0
        else:
            ends_now = local == short_total + schedule.final_rounds
        if not ends_now:
            return
        total = self._boost_total[replicas][:, None]
        count1 = self._boost_counts_1[replicas]
        new = (2 * count1 > total).astype(np.int8)
        self._break_ties(new, 2 * count1 == total, replicas)
        self._opinions[replicas] = new
        self._boost_counts_1[replicas] = 0
        self._boost_total[replicas] = 0

    # ------------------------------------------------------------------
    def opinions(self) -> np.ndarray:
        self._require_reset()
        return self._opinions

    @property
    def weak_opinions(self) -> np.ndarray:
        """Weak opinions committed at the end of Phase 1 (``None`` before)."""
        return self._weak_opinions

    def finished(self, round_index: int) -> bool:
        return round_index >= self.schedule.total_rounds
