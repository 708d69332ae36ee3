"""The topology seam: who can a PULL(h) sample actually land on?

The paper's model (Section 1.3) samples observation targets uniformly
from the *whole* population — the complete-graph, well-mixed regime all
the engines in :mod:`repro.model` and :mod:`repro.protocols` were built
for.  Real deployments sample *neighbors*: gossip peers, radio range,
link-layer adjacency.  "Breathe before Speaking" and "Limits for Rumor
Spreading in stochastic populations" (PAPERS.md) predict where that
structure should and shouldn't move the Theta-bounds; experiment EXT4
maps the frontier empirically.

A :class:`TopologySampler` owns exactly the sampling step: given a set
of sampling agents and the fan-out ``h``, produce the ``(m, h)`` matrix
of observed agent indices.  Everything else — displays, noise,
updates — is untouched, so the same protocol objects run unchanged on
any graph.

Two contracts matter for exactness:

* :class:`CompleteTopology` emits *exactly*
  ``generator.integers(0, n, size=(m, h))`` — the same call
  :func:`repro.model.sampling.sample_indices` makes — so engines resolve
  it to the legacy uniform path and stay bit-identical for fixed seeds
  (``is_uniform`` marks this).
* Graph samplers guarantee minimum degree 1 (isolated nodes get a
  self-loop), so ``h`` samples are always drawable and per-agent
  neighbor tallies never hit an empty segment.
"""

from __future__ import annotations

import abc
from itertools import chain
from typing import Optional

import numpy as np

from ..exceptions import ConfigurationError
from ..types import RngLike, coerce_rng

__all__ = ["TopologySampler", "CompleteTopology", "GraphTopology"]


class TopologySampler(abc.ABC):
    """Where each PULL(h) observation may land.

    Lifecycle: construct (cheap, parameter validation only), then
    :meth:`bind` to a population size — drawing any random structure
    from the bind RNG — then :meth:`sample` once per round.  Engines
    call :meth:`ensure_bound` with the run's generator, so an unbound
    sampler realizes its graph from the run RNG (reproducible from the
    master seed) while a pre-bound sampler pins one fixed graph across
    runs.

    ``dynamic`` samplers additionally evolve in :meth:`begin_round`
    (churn: arrivals/departures re-wiring edges); engines that simulate
    whole phases in one draw reject them.  ``is_uniform`` marks samplers
    equivalent to uniform population sampling — engines resolve those to
    the legacy code path, which keeps ``topology="complete"``
    bit-identical to no topology at all.
    """

    #: Human-readable family name (used in errors, benches, results).
    kind: str = "?"
    #: True when the edge set changes between rounds.
    dynamic: bool = False
    #: True when sampling is equivalent to uniform population sampling.
    is_uniform: bool = False

    def __init__(self) -> None:
        self._n: Optional[int] = None

    @property
    def n(self) -> Optional[int]:
        """Bound population size (``None`` before :meth:`bind`)."""
        return self._n

    def bind(self, n: int, rng: RngLike = None) -> "TopologySampler":
        """Realize the sampler for ``n`` agents; returns ``self``.

        Random families draw their structure from ``rng`` here — binding
        is the only place a *static* sampler consumes randomness.
        """
        if n < 2:
            raise ConfigurationError(
                f"topology needs a population of at least 2 agents, got {n}"
            )
        if self._n is not None:
            raise ConfigurationError(
                f"{type(self).__name__} is already bound to n={self._n}; "
                f"construct a fresh sampler to bind n={n}"
            )
        self._n = int(n)
        self._build(self._n, coerce_rng(rng))
        return self

    def ensure_bound(self, n: int, rng: RngLike = None) -> "TopologySampler":
        """Bind on first use; later calls only check ``n`` matches."""
        if self._n is None:
            return self.bind(n, rng)
        if self._n != n:
            raise ConfigurationError(
                f"{type(self).__name__} is bound to n={self._n} but the "
                f"population has n={n}"
            )
        return self

    def _build(self, n: int, generator: np.random.Generator) -> None:
        """Realize internal structure (default: nothing to build)."""

    def begin_round(
        self, round_index: int, generator: np.random.Generator
    ) -> None:
        """Hook called once per round *before* sampling.

        Static samplers do nothing; ``dynamic`` ones evolve their edge
        set here (consuming the run generator).
        """

    @abc.abstractmethod
    def sample(
        self,
        agents: Optional[np.ndarray],
        h: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        """Draw ``h`` observation targets per sampling agent.

        ``agents`` is a 1-d index array, or ``None`` meaning all ``n``
        agents in order (the engines' common case).  Returns an
        ``(m, h)`` int array of agent indices in ``[0, n)``; targets are
        drawn with replacement, matching the model's uniform case.
        """

    def degrees(self) -> np.ndarray:
        """Out-degree of every agent (``(n,)``; complete graph: ``n``)."""
        self._require_bound()
        return np.full(self._n, self._n, dtype=np.int64)

    def neighbor_symbol_counts(
        self, values: np.ndarray, symbol: int
    ) -> np.ndarray:
        """Per-agent count of neighbors whose ``values`` entry == symbol.

        This is the graph analogue of the global symbol count ``k`` the
        phase-batched fast engines use: on graph ``G`` the probability a
        single noisy look of agent ``i`` shows ``symbol`` is
        ``(k_i/deg_i)(1-delta) + (1-k_i/deg_i)delta`` with
        ``k_i`` this count.
        """
        self._require_bound()
        total = int(np.sum(np.asarray(values) == symbol))
        return np.full(self._n, total, dtype=np.int64)

    def _require_bound(self) -> int:
        if self._n is None:
            raise ConfigurationError(
                f"{type(self).__name__} must be bound to a population "
                f"size first (call bind(n) or run it through an engine)"
            )
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bound = f"n={self._n}" if self._n is not None else "unbound"
        return f"{type(self).__name__}(kind={self.kind!r}, {bound})"


class CompleteTopology(TopologySampler):
    """Uniform sampling from the whole population — the paper's model.

    ``sample`` reproduces :func:`repro.model.sampling.sample_indices`
    call-for-call, and ``is_uniform`` lets engines collapse it onto the
    legacy path entirely, so this sampler is the conformance anchor: any
    engine run with ``topology="complete"`` must be bit-identical to the
    same run with no topology at all.
    """

    kind = "complete"
    is_uniform = True

    def sample(
        self,
        agents: Optional[np.ndarray],
        h: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        n = self._require_bound()
        m = n if agents is None else len(agents)
        return generator.integers(0, n, size=(m, h))


class GraphTopology(TopologySampler):
    """Static-graph sampling backed by a CSR adjacency structure.

    Subclasses implement :meth:`_build` and hand the realized adjacency
    to :meth:`_set_adjacency` (a networkx graph or a neighbor-list
    sequence) or straight to :meth:`_freeze` (``(rows, cols)`` entry
    arrays); either way one vectorized sort builds the CSR arrays.
    Sampling is fully vectorized: one broadcast ``integers`` draw of
    per-agent offsets, one gather through the CSR ``indices`` array.
    """

    def __init__(self) -> None:
        super().__init__()
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        self._degrees: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    def _set_adjacency(self, neighbor_lists) -> None:
        """Freeze neighbor lists (or an nx graph) into CSR arrays.

        A graph contributes each node's ``neighbors``; a sequence holds
        one iterable of neighbor indices per agent (duplicates kept).
        """
        n = self._require_bound()
        if hasattr(neighbor_lists, "number_of_nodes"):
            graph = neighbor_lists
            if graph.number_of_nodes() != n or set(graph.nodes) != set(range(n)):
                raise ConfigurationError(
                    f"graph must have nodes 0..{n - 1} exactly "
                    f"(got {graph.number_of_nodes()} nodes)"
                )
            adjacency = graph.adj  # successors, like graph.neighbors
            rows = np.fromiter(adjacency, dtype=np.int64, count=n)
            blocks = list(adjacency.values())
        else:
            blocks = list(neighbor_lists)
            if len(blocks) != n:
                raise ConfigurationError(
                    f"need one neighbor list per agent: {n} lists, "
                    f"got {len(blocks)}"
                )
            rows = np.arange(n, dtype=np.int64)
        counts = np.fromiter(map(len, blocks), dtype=np.int64, count=n)
        cols = np.fromiter(
            chain.from_iterable(blocks), dtype=np.int64, count=int(counts.sum())
        )
        self._freeze(np.repeat(rows, counts), cols)

    def _freeze(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Freeze directed adjacency entries ``rows[i] -> cols[i]`` into CSR.

        Each agent's neighbors are sorted (duplicates kept).  Agents with
        no neighbors get a self-loop so every agent keeps a nonempty
        sample space (degree >= 1 everywhere).
        """
        n = self._require_bound()
        outside = (cols < 0) | (cols >= n)
        if outside.any():
            agent = int(rows[outside].min())
            raise ConfigurationError(
                f"neighbor indices of agent {agent} fall outside [0, {n})"
            )
        degrees = np.bincount(rows, minlength=n)
        isolated = np.flatnonzero(degrees == 0)
        if isolated.size:
            rows = np.concatenate([rows, isolated])
            cols = np.concatenate([cols, isolated])
            degrees[isolated] = 1
        self._degrees = degrees.astype(np.int64, copy=False)
        # One sort of the combined key row*n + col orders the entries by
        # row, then by neighbor (n*n fits int64 for any n whose CSR fits
        # in memory).
        self._indices = np.sort(rows * n + cols) % n
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=self._indptr[1:])

    # ------------------------------------------------------------------
    def sample(
        self,
        agents: Optional[np.ndarray],
        h: int,
        generator: np.random.Generator,
    ) -> np.ndarray:
        self._require_bound()
        if self._indices is None:
            raise ConfigurationError(
                f"{type(self).__name__} has no adjacency yet "
                f"(_build never called _set_adjacency)"
            )
        if agents is None:
            degrees = self._degrees
            starts = self._indptr[:-1]
        else:
            agents = np.asarray(agents, dtype=np.int64)
            degrees = self._degrees[agents]
            starts = self._indptr[agents]
        m = degrees.shape[0]
        offsets = generator.integers(0, degrees[:, None], size=(m, h))
        return self._indices[starts[:, None] + offsets]

    def degrees(self) -> np.ndarray:
        self._require_bound()
        return self._degrees.copy()

    def neighbor_symbol_counts(
        self, values: np.ndarray, symbol: int
    ) -> np.ndarray:
        self._require_bound()
        hits = (np.asarray(values)[self._indices] == symbol).astype(np.int64)
        # Min degree 1 means no empty CSR segment, so reduceat is exact.
        return np.add.reduceat(hits, self._indptr[:-1])

    def edge_count(self) -> int:
        """Directed adjacency entries (undirected edges count twice)."""
        self._require_bound()
        return int(self._indices.size)
