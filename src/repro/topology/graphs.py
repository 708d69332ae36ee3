"""Concrete topology families: regular, lattice, geometric, churn.

Random families draw their structure at :meth:`~TopologySampler.bind`
time from the bind RNG (engines bind unbound samplers from the run
generator, so each run realizes a fresh graph reproducibly).

Only the lattice families (``grid``, ``cycle``, ``path``) and explicit
networkx graphs need networkx, which they import lazily through
:func:`repro.model.structured.build_graph`; the random-regular, churn
and geometric families are numpy/stdlib only, so the engines run on a
numpy-only install.
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from itertools import chain
from typing import Optional, Set, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..rng import derive_seed
from .base import GraphTopology

__all__ = [
    "ExplicitGraphTopology",
    "RandomRegularTopology",
    "LatticeTopology",
    "GeometricTopology",
    "ChurnTopology",
    "random_regular_edges",
]


def random_regular_edges(n: int, d: int, seed: int) -> Set[Tuple[int, int]]:
    """The edge set of a uniform-ish random ``d``-regular graph on ``n`` nodes.

    This is the Steger–Wormald pairing networkx's
    ``random_regular_graph(d, n, seed)`` runs, step for step: the same
    ``random.Random(seed)``, the same ``shuffle`` of the stub list, the
    same insertion order into the edge set and the same restart when a
    pass leaves no suitable pair.  It therefore returns an equal set,
    built by the same insertions (so even its iteration order matches),
    without building a graph object.  Edges are ``(u, v)`` with
    ``u < v``.
    """
    if (n * d) % 2 != 0:
        raise ConfigurationError("n * degree must be even for a regular graph")
    if not 0 <= d < n:
        raise ConfigurationError(
            f"a regular graph needs 0 <= degree < n, got degree={d}, n={n}"
        )
    if d == 0:
        return set()
    shuffle = random.Random(seed).shuffle

    def suitable(edges, potential_edges) -> bool:
        # Is some leftover stub pair still joinable?  If not, the pass
        # has failed and the whole pairing restarts.
        if not potential_edges:
            return True
        for s1 in potential_edges:
            for s2 in potential_edges:
                if s1 == s2:
                    break
                if s1 > s2:
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def try_creation():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            potential_edges = defaultdict(int)
            shuffle(stubs)
            stubiter = iter(stubs)
            for s1, s2 in zip(stubiter, stubiter):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential_edges[s1] += 1
                    potential_edges[s2] += 1
            if not suitable(edges, potential_edges):
                return None
            stubs = [
                node
                for node, potential in potential_edges.items()
                for _ in range(potential)
            ]
        return edges

    edges = try_creation()
    while edges is None:
        edges = try_creation()
    return edges


def _regular_degree(requested: int, n: int) -> int:
    """The largest feasible regular degree ``<= requested`` for ``n``."""
    degree = min(requested, n - 1)
    if (n * degree) % 2 != 0:
        degree -= 1
    return degree


class ExplicitGraphTopology(GraphTopology):
    """Sampling over a caller-supplied graph (networkx or neighbor lists)."""

    kind = "explicit"

    def __init__(self, graph) -> None:
        super().__init__()
        self._graph = graph

    def _build(self, n: int, generator: np.random.Generator) -> None:
        self._set_adjacency(self._graph)


class RandomRegularTopology(GraphTopology):
    """A random d-regular graph — the expander end of the sparse regime."""

    kind = "regular"

    def __init__(self, degree: int = 8) -> None:
        super().__init__()
        if degree < 1:
            raise ConfigurationError(f"degree must be positive, got {degree}")
        self.degree = int(degree)

    def _build(self, n: int, generator: np.random.Generator) -> None:
        degree = _regular_degree(self.degree, n)
        if degree < 1:
            raise ConfigurationError(
                f"no valid regular degree <= {self.degree} for n={n}"
            )
        edges = random_regular_edges(n, degree, derive_seed(generator))
        # Endpoints u0, v0, u1, v1, ...: each edge is the two entries
        # u -> v and v -> u.
        ends = np.fromiter(
            chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges)
        )
        self._freeze(ends, ends.reshape(-1, 2)[:, ::-1].ravel())


class LatticeTopology(GraphTopology):
    """Deterministic lattices: near-square ``grid``, ``cycle`` or ``path``."""

    kind = "lattice"

    def __init__(self, kind: str = "grid") -> None:
        super().__init__()
        if kind not in ("grid", "cycle", "path"):
            raise ConfigurationError(
                f"lattice kind must be grid, cycle or path, got {kind!r}"
            )
        self.kind = kind

    def _build(self, n: int, generator: np.random.Generator) -> None:
        from ..model.structured import build_graph

        self._set_adjacency(build_graph(self.kind, n))


class GeometricTopology(GraphTopology):
    """Random geometric graph: points in the unit square, radius links.

    The default radius ``sqrt(1.5 * log(n) / (pi * n))`` sits just above
    the connectivity threshold, so the graph is connected with high
    probability while staying genuinely spatial (hop counts scale like
    ``1/r``).  Any node the radius leaves isolated is attached to its
    nearest neighbor so sampling never stalls.
    """

    kind = "geometric"

    def __init__(self, radius: Optional[float] = None) -> None:
        super().__init__()
        if radius is not None and not 0.0 < radius <= math.sqrt(2.0):
            raise ConfigurationError(
                f"radius must lie in (0, sqrt(2)], got {radius}"
            )
        self.radius = radius

    def _build(self, n: int, generator: np.random.Generator) -> None:
        radius = self.radius
        if radius is None:
            radius = math.sqrt(1.5 * math.log(max(n, 2)) / (math.pi * n))
        points = generator.random((n, 2))
        self.points = points
        neighbor_lists = [[] for _ in range(n)]
        nearest = np.zeros(n, dtype=np.int64)
        r2 = radius * radius
        # Chunk the pairwise-distance scan so memory stays O(chunk * n).
        chunk = max(1, min(n, 8 * 1024 * 1024 // (n * 8 or 1)))
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            diff = points[start:stop, None, :] - points[None, :, :]
            dist2 = np.einsum("ijk,ijk->ij", diff, diff)
            rows = np.arange(start, stop)
            dist2[rows - start, rows] = np.inf
            nearest[start:stop] = np.argmin(dist2, axis=1)
            within = dist2 <= r2
            for row in range(start, stop):
                neighbor_lists[row] = np.flatnonzero(within[row - start]).tolist()
        for agent in range(n):
            if not neighbor_lists[agent]:
                other = int(nearest[agent])
                neighbor_lists[agent].append(other)
                if agent not in neighbor_lists[other]:
                    neighbor_lists[other].append(agent)
        self._set_adjacency(neighbor_lists)


class ChurnTopology(GraphTopology):
    """A time-evolving graph under population churn.

    Starts from a random d-regular graph; at the start of every round
    each agent independently *departs* with probability ``churn_rate``
    and is replaced by an arrival that wires ``degree`` fresh uniform
    edges — the old agent's edges vanish with it.  The stationary
    degree distribution stays concentrated around ``degree`` while the
    edge set fully decorrelates every ``~1/churn_rate`` rounds.

    ``dynamic`` — the evolution consumes the run generator in
    :meth:`begin_round`, so only round-by-round engines (serial pull,
    push, hybrid) can honor it; phase-batched engines reject it with a
    typed error.
    """

    kind = "churn"
    dynamic = True

    def __init__(self, degree: int = 8, churn_rate: float = 0.05) -> None:
        super().__init__()
        if degree < 1:
            raise ConfigurationError(f"degree must be positive, got {degree}")
        if not 0.0 <= churn_rate < 1.0:
            raise ConfigurationError(
                f"churn_rate must lie in [0, 1), got {churn_rate}"
            )
        self.degree = int(degree)
        self.churn_rate = float(churn_rate)
        self._adjacency = None
        self._dirty = False

    def _build(self, n: int, generator: np.random.Generator) -> None:
        degree = max(_regular_degree(self.degree, n), 1)
        adjacency = [set() for _ in range(n)]
        for u, v in random_regular_edges(n, degree, derive_seed(generator)):
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._adjacency = adjacency
        self._dirty = True

    def begin_round(
        self, round_index: int, generator: np.random.Generator
    ) -> None:
        n = self._require_bound()
        departed = np.flatnonzero(generator.random(n) < self.churn_rate)
        if departed.size == 0:
            return
        adjacency = self._adjacency
        for agent in departed:
            agent = int(agent)
            for other in adjacency[agent]:
                adjacency[other].discard(agent)
            adjacency[agent] = set()
        # Arrivals rewire: `degree` uniform partners each (dedup, no
        # self-edges), drawn from the same run generator.
        partners = generator.integers(0, n, size=(departed.size, self.degree))
        for row, agent in enumerate(departed):
            agent = int(agent)
            for other in partners[row]:
                other = int(other)
                if other != agent:
                    adjacency[agent].add(other)
                    adjacency[other].add(agent)
        self._dirty = True

    def _refresh(self) -> None:
        if self._dirty:
            self._set_adjacency(self._adjacency)
            self._dirty = False

    def sample(self, agents, h, generator):
        self._refresh()
        return super().sample(agents, h, generator)

    def degrees(self) -> np.ndarray:
        self._refresh()
        return super().degrees()

    def neighbor_symbol_counts(self, values, symbol) -> np.ndarray:
        self._refresh()
        return super().neighbor_symbol_counts(values, symbol)
