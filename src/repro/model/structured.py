"""Stable-network spreading — the intro's counterpoint, made executable.

The paper's introduction contrasts the noisy *well-mixed* PULL model
(where Theorem 3 imposes Omega(n) for small h) with *stable* networks:
"when the communication pattern is stable, allowing agents to control
whom they interact with, noise can often be mitigated through
redundancy".  This module makes that counterpoint measurable: on a fixed
communication graph, an uninformed node locks onto one informed
neighbour, observes it ``R = O(log n / (1-2delta)^2)`` times, and
majority-decodes — so the rumor floods in
``O(diameter * R)`` rounds with per-hop error ``1/poly(n)``.

On an expander (random d-regular graph) that is ``O(log n * R)`` rounds
— exponentially faster than noisy PULL(1)'s Omega(n) — quantifying
exactly how much the *loss of structure* costs (experiment ABL3).

The informed-neighbour discovery is idealized (the simulator reveals
which neighbours are informed; a real stable-network protocol would
signal informedness with the same repetition trick at a constant-factor
cost).  The measured quantity of interest — the time *scale* — is
unaffected; see DESIGN.md, Substitutions.
"""

from __future__ import annotations

import dataclasses
import math
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from ..exceptions import ConfigurationError
from ..results import RunReport
from ..rng import derive_seed
from ..types import RngLike, coerce_rng

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["StableFlooding", "FloodingResult", "build_graph"]


def build_graph(kind: str, n: int, degree: int = 4, rng: RngLike = None) -> nx.Graph:
    """Construct a named test topology.

    ``kind`` is one of ``"complete"``, ``"path"``, ``"cycle"``,
    ``"regular"`` (random d-regular) or ``"grid"`` (a near-square
    ``side x ceil(n/side)`` 2-d lattice with ``side = isqrt(n)``,
    trimmed to exactly ``n`` nodes; exact squares build the usual
    ``side x side`` lattice).  networkx is imported here, on first use,
    so importing :mod:`repro` does not need it.
    """
    import networkx as nx

    if kind == "complete":
        return nx.complete_graph(n)
    if kind == "path":
        return nx.path_graph(n)
    if kind == "cycle":
        return nx.cycle_graph(n)
    if kind == "regular":
        from ..topology.graphs import random_regular_edges

        # The pairing takes a plain integer seed; derive it through the
        # SeedSequence-spawn convention so the full 64-bit seed space is
        # reachable (a raw generator.integers(0, 2**31) draw is not).
        edges = random_regular_edges(n, degree, derive_seed(rng))
        # Built exactly as nx.random_regular_graph builds it, so each
        # node lists its neighbours in the same order.
        graph = nx.empty_graph(n)
        graph.add_edges_from(edges)
        return graph
    if kind == "grid":
        side = max(int(math.isqrt(n)), 1)
        if side * side == n:
            graph = nx.grid_2d_graph(side, side)
            return nx.convert_node_labels_to_integers(graph)
        cols = -(-n // side)  # ceil(n / side)
        graph = nx.grid_2d_graph(side, cols)
        graph = nx.convert_node_labels_to_integers(graph)
        # grid_2d_graph enumerates nodes row-major, so integer labels
        # n..side*cols-1 are the tail of the last row; dropping them
        # keeps the lattice connected (every survivor still has its
        # up/left neighbour).
        graph.remove_nodes_from(range(n, side * cols))
        return graph
    raise ConfigurationError(f"unknown graph kind {kind!r}")


@dataclasses.dataclass
class FloodingResult(RunReport):
    """Outcome of one stable-network flooding run.

    Attributes
    ----------
    converged:
        Everyone informed *and* holding the sources' bit.
    rounds:
        Total communication rounds (stages x repetitions).
    stages:
        Flooding waves executed (bounded by the graph diameter).
    accuracy:
        Fraction of nodes holding the correct bit at the end.
    """

    converged: bool
    rounds: int
    stages: int
    accuracy: float
    final_bits: np.ndarray


class StableFlooding:
    """Redundancy-decoded flooding of one bit over a stable graph.

    Parameters
    ----------
    graph:
        The fixed communication graph (nodes ``0..n-1``).
    delta:
        Binary-symmetric observation noise per look.
    repetitions:
        Looks per hop; default ``ceil(3*log(n)/(1-2*delta)^2)`` so the
        per-hop majority errs with probability ``O(1/n^2)``.
    """

    def __init__(
        self,
        graph: nx.Graph,
        delta: float,
        repetitions: Optional[int] = None,
    ) -> None:
        if not 0.0 <= delta < 0.5:
            raise ConfigurationError(f"delta must lie in [0, 0.5), got {delta}")
        n = graph.number_of_nodes()
        if n < 2:
            raise ConfigurationError("graph must have at least 2 nodes")
        if set(graph.nodes) != set(range(n)):
            raise ConfigurationError("graph nodes must be 0..n-1")
        self.graph = graph
        self.delta = delta
        if repetitions is None:
            repetitions = max(
                int(math.ceil(3.0 * math.log(n) / (1.0 - 2.0 * delta) ** 2)), 1
            )
        self.repetitions = repetitions

    def run(
        self,
        source_nodes: List[int],
        source_bit: int = 1,
        rng: RngLike = None,
        max_stages: Optional[int] = None,
        max_rounds: Optional[int] = None,
        seed: Optional[int] = None,
        telemetry=None,
    ) -> FloodingResult:
        """Flood ``source_bit`` from ``source_nodes`` across the graph.

        ``max_rounds``/``seed``/``telemetry`` are the canonical-contract
        spellings (:class:`repro.types.EngineRunner`): ``max_rounds`` is
        an alias of ``max_stages`` (exactly one may be given), ``seed``
        an alternative spelling of an integer ``rng``, and ``telemetry``
        receives a ``flooding.run`` phase timer (RNG-neutral).
        """
        from ..telemetry import ensure_telemetry

        if max_rounds is not None:
            if max_stages is not None:
                raise ConfigurationError(
                    "pass either max_stages or max_rounds (aliases), not both"
                )
            max_stages = max_rounds
        if seed is not None:
            if rng is not None:
                raise ConfigurationError(
                    "pass either rng or seed, not both: they are "
                    "alternative spellings of the master seed"
                )
            rng = seed
        tele = ensure_telemetry(telemetry)
        generator = coerce_rng(rng)
        n = self.graph.number_of_nodes()
        if not source_nodes:
            raise ConfigurationError("at least one source node is required")
        if max_stages is None:
            max_stages = n  # diameter is always < n
        informed = np.zeros(n, dtype=bool)
        bits = np.zeros(n, dtype=np.int8)
        for node in source_nodes:
            informed[node] = True
            bits[node] = source_bit

        stages = 0
        R = self.repetitions
        with tele.phase("flooding.run", max_stages=max_stages):
            stages = self._flood(
                generator, informed, bits, max_stages
            )

        accuracy = float(np.mean(bits == source_bit))
        converged = bool(informed.all()) and accuracy == 1.0
        if tele.enabled:
            tele.counter("flooding.runs")
            tele.gauge("flooding.stages", stages)
        return FloodingResult(
            converged=converged,
            rounds=stages * R,
            stages=stages,
            accuracy=accuracy,
            final_bits=bits,
        )

    def _flood(self, generator, informed, bits, max_stages) -> int:
        """The flooding waves themselves; returns executed stage count."""
        stages = 0
        R = self.repetitions
        while not informed.all() and stages < max_stages:
            frontier = []
            for node in np.flatnonzero(~informed):
                options = [v for v in self.graph.neighbors(node) if informed[v]]
                if options:
                    frontier.append((node, options[0]))
            if not frontier:
                break  # disconnected component without a source
            for node, teacher in frontier:
                # R noisy looks at the chosen stable neighbour, majority.
                flips = generator.random(R) < self.delta
                observed = np.where(flips, 1 - bits[teacher], bits[teacher])
                ones = int(observed.sum())
                if 2 * ones > R:
                    bits[node] = 1
                elif 2 * ones < R:
                    bits[node] = 0
                else:
                    bits[node] = int(generator.integers(0, 2))
                informed[node] = True
            stages += 1
        return stages
