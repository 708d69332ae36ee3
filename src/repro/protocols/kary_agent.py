"""Agent-level k-ary plurality filter, for the exact engine.

The literal round-by-round counterpart of
:class:`~repro.protocols.kary.FastKAryPluralityFilter`: k listening
phases (neutral wall per phase, per-symbol tallies credited outside the
wall symbol), arg-max weak opinion, then arg-max boosting sub-phases.
Runs on :class:`~repro.model.engine.PullEngine` with a k-letter uniform
noise matrix; the cross-validation tests check it against the fast
engine statistically.

Sources are identified via the population's roles; a source's preferred
opinion is its (binary) preference for k = 2, and for k > 2 the
preference list is supplied explicitly at construction (the binary
``Population`` role machinery doesn't know about k opinions).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import ProtocolError
from ..model.engine import PullProtocol
from ..model.population import Population
from ..model.sampling import symbol_tallies
from ..types import RngLike, coerce_rng
from .kary import FastKAryPluralityFilter, KAryConfig


class KAryPluralityProtocol(PullProtocol):
    """Algorithm-1-style k-ary plurality filter as a ``PullProtocol``.

    Parameters
    ----------
    engine_params:
        A :class:`FastKAryPluralityFilter` instance supplying the k-ary
        config and resolved schedule (budget, windows, sub-phases) so
        the two implementations share parameters exactly.
    source_preferences:
        Opinion (in ``0..k-1``) of each source agent, aligned with the
        population's ``source_indices`` order.
    """

    def __init__(
        self,
        engine_params: FastKAryPluralityFilter,
        source_preferences: Optional[Sequence[int]] = None,
    ) -> None:
        self.params = engine_params
        self.alphabet_size = engine_params.config.k
        self._explicit_prefs = source_preferences
        self._population: Population = None
        self._rng: np.random.Generator = None
        self._prefs: np.ndarray = None  # per-source opinion
        self._scores: np.ndarray = None  # (n, k) listening tallies
        self._boost_tallies: np.ndarray = None
        self._boost_total: int = 0
        self._opinions: np.ndarray = None
        self._weak: np.ndarray = None

    # ------------------------------------------------------------------
    def reset(self, population: Population, rng: RngLike = None) -> None:
        cfg = self.params.config
        if population.n != cfg.n or population.h != cfg.h:
            raise ProtocolError("population does not match the k-ary config")
        if population.source_indices.size != cfg.num_sources:
            raise ProtocolError("population source count mismatch")
        self._population = population
        self._rng = coerce_rng(rng)
        if self._explicit_prefs is not None:
            prefs = np.asarray(self._explicit_prefs, dtype=np.int64)
            if prefs.shape != (cfg.num_sources,):
                raise ProtocolError("source_preferences has wrong length")
        else:
            # Expand the config's counts in order: sources 0..s_0-1 prefer
            # opinion 0, the next s_1 prefer 1, etc.
            prefs = np.repeat(
                np.arange(cfg.k), np.asarray(cfg.source_counts, dtype=int)
            )
        expected = np.bincount(prefs, minlength=cfg.k)
        if not np.array_equal(expected, np.asarray(cfg.source_counts)):
            raise ProtocolError("source_preferences disagree with the config")
        self._prefs = prefs
        n, k = cfg.n, cfg.k
        self._scores = np.zeros((n, k), dtype=np.int64)
        self._boost_tallies = np.zeros((n, k), dtype=np.int64)
        self._boost_total = 0
        self._opinions = self._rng.integers(0, k, size=n).astype(np.int64)
        self._weak = None

    def _require_reset(self) -> None:
        if self._population is None:
            raise ProtocolError("protocol must be reset before use")

    # Schedule geometry ------------------------------------------------
    @property
    def _listening_rounds(self) -> int:
        return self.params.config.k * self.params.phase_rounds

    def _phase_of(self, round_index: int) -> Optional[int]:
        """Listening phase index, or None once boosting starts."""
        if round_index < self._listening_rounds:
            return round_index // self.params.phase_rounds
        return None

    # ------------------------------------------------------------------
    def displays(self, round_index: int) -> np.ndarray:
        self._require_reset()
        pop = self._population
        phase = self._phase_of(round_index)
        if phase is not None:
            out = np.full(pop.n, phase, dtype=np.int64)  # the neutral wall
            out[pop.source_indices] = self._prefs
            return out
        if round_index >= self.params.total_rounds:
            raise ProtocolError(f"round {round_index} is past the horizon")
        return self._opinions

    def receive(self, round_index: int, observations: np.ndarray) -> None:
        self._require_reset()
        k = self.params.config.k
        tallies = symbol_tallies(observations, k)
        phase = self._phase_of(round_index)
        if phase is not None:
            credit = np.ones(k, dtype=bool)
            credit[phase] = False
            self._scores[:, credit] += tallies[:, credit]
            if round_index == self._listening_rounds - 1:
                self._weak = self._argmax(self._scores)
                self._opinions = self._weak.copy()
            return
        self._boost_tallies += tallies
        self._boost_total += observations.shape[1]
        self._maybe_end_subphase(round_index)

    def _maybe_end_subphase(self, round_index: int) -> None:
        params = self.params
        local = round_index - self._listening_rounds + 1
        short_total = params.subphase_rounds * params.num_subphases
        if local <= short_total:
            ends = local % params.subphase_rounds == 0
        else:
            ends = local == short_total + params.phase_rounds
        if not ends:
            return
        self._opinions = self._argmax(self._boost_tallies)
        self._boost_tallies[:] = 0
        self._boost_total = 0

    def _argmax(self, scores: np.ndarray) -> np.ndarray:
        jitter = self._rng.random(scores.shape)
        return np.argmax(scores + 0.5 * jitter, axis=1).astype(np.int64)

    # ------------------------------------------------------------------
    def opinions(self) -> np.ndarray:
        self._require_reset()
        return self._opinions

    @property
    def weak_opinions(self) -> Optional[np.ndarray]:
        """Weak opinions committed at the end of the listening stage."""
        return self._weak

    def finished(self, round_index: int) -> bool:
        return round_index >= self.params.total_rounds


def binary_population_for(config: KAryConfig, rng: RngLike = None) -> Population:
    """A Population facade for a k-ary config (roles only; preferences
    come from the protocol).  Sources occupy positional order so the
    default preference expansion aligns."""
    from ..model.config import PopulationConfig
    from ..types import SourceCounts

    s = config.num_sources
    # Role bookkeeping only needs "who is a source"; encode all sources
    # as 1-preferring in the binary facade.
    facade = PopulationConfig(
        n=config.n,
        sources=SourceCounts(s0=0, s1=s),
        h=config.h,
    )
    return Population(facade, rng=rng, shuffle=False)
