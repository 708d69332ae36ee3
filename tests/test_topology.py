"""Unit tests for the topology samplers (repro.topology)."""

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.model import build_graph
from repro.rng import derive_seed
from repro.topology import (
    TOPOLOGY_KINDS,
    ChurnTopology,
    CompleteTopology,
    ExplicitGraphTopology,
    GeometricTopology,
    GraphTopology,
    LatticeTopology,
    RandomRegularTopology,
    TopologySampler,
    create_topology,
    resolve_topology,
)

pytestmark = pytest.mark.topology


def reference_csr(neighbor_lists, n):
    """The per-agent CSR freeze that the vectorized one replaced.

    Kept here only as the oracle for ``GraphTopology._set_adjacency``.
    """
    if hasattr(neighbor_lists, "number_of_nodes"):
        graph = neighbor_lists
        neighbor_lists = [sorted(graph.neighbors(node)) for node in range(n)]
    degrees = np.empty(n, dtype=np.int64)
    chunks = []
    for agent, neighbors in enumerate(neighbor_lists):
        block = np.asarray(sorted(neighbors), dtype=np.int64)
        if block.size == 0:
            block = np.array([agent], dtype=np.int64)  # self-loop
        if block.size and (block.min() < 0 or block.max() >= n):
            raise ConfigurationError(
                f"neighbor indices of agent {agent} fall outside [0, {n})"
            )
        degrees[agent] = block.size
        chunks.append(block)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    return indptr, np.concatenate(chunks), degrees


def assert_csr(sampler, expected):
    for name, want in zip(("_indptr", "_indices", "_degrees"), expected):
        got = getattr(sampler, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


@pytest.fixture
def adjacency_inputs(monkeypatch):
    """Record (a snapshot of) every ``_set_adjacency`` argument."""
    seen = []
    freeze = GraphTopology._set_adjacency

    def recording(self, neighbor_lists):
        if hasattr(neighbor_lists, "number_of_nodes"):
            seen.append(neighbor_lists.copy())
        else:
            seen.append([list(block) for block in neighbor_lists])
        freeze(self, neighbor_lists)

    monkeypatch.setattr(GraphTopology, "_set_adjacency", recording)
    return seen


class TestCSRFreezeOracle:
    """The vectorized freeze equals the per-agent loop on every family."""

    @pytest.mark.parametrize("family", ["geometric", "grid", "cycle", "path"])
    @pytest.mark.parametrize("n", [2, 10, 23, 240])
    def test_static_families(self, adjacency_inputs, family, n):
        sampler = create_topology(family).bind(n, n)
        (given,) = adjacency_inputs
        assert_csr(sampler, reference_csr(given, n))

    @pytest.mark.parametrize("n,degree", [(2, 8), (7, 8), (40, 6), (301, 8), (64, 63)])
    def test_random_regular_equals_networkx_then_loop(self, n, degree, seed=5):
        sampler = RandomRegularTopology(degree=degree).bind(n, seed)
        # The parent construction: networkx's generator seeded through
        # derive_seed, then the per-agent freeze.
        d = min(degree, n - 1)
        d -= (n * d) % 2
        generator = np.random.default_rng(seed)
        graph = nx.random_regular_graph(d, n, seed=derive_seed(generator))
        assert_csr(sampler, reference_csr(graph, n))

    def test_churn_refreshes_every_round(self, adjacency_inputs):
        sampler = ChurnTopology(degree=4, churn_rate=0.3).bind(40, 1)
        generator = np.random.default_rng(2)
        for round_index in range(6):
            sampler.begin_round(round_index, generator)
            sampler.sample(None, 3, generator)
            assert_csr(sampler, reference_csr(adjacency_inputs[-1], 40))
        assert len(adjacency_inputs) >= 6

    def test_churn_starts_from_the_regular_graph(self):
        churn = ChurnTopology(degree=4).bind(30, 9)
        churn.degrees()  # the CSR is frozen lazily, on first use
        regular = RandomRegularTopology(degree=4).bind(30, 9)
        assert_csr(churn, (regular._indptr, regular._indices, regular._degrees))

    def test_nx_self_loop_isolated_node_and_node_order(self):
        graph = nx.Graph()
        graph.add_nodes_from([3, 0, 5, 1, 4, 2])
        graph.add_edges_from([(0, 3), (3, 3), (5, 1), (1, 0), (4, 0)])
        sampler = ExplicitGraphTopology(graph).bind(6)
        assert_csr(sampler, reference_csr(graph, 6))
        assert sampler.degrees()[2] == 1  # isolated: self-loop

    def test_nx_digraph_uses_successors(self):
        graph = nx.DiGraph([(0, 1), (2, 0), (2, 1), (1, 1)])
        sampler = ExplicitGraphTopology(graph).bind(3)
        assert_csr(sampler, reference_csr(graph, 3))

    def test_lists_with_duplicates_and_empty_rows(self):
        lists = [[3, 1, 1], [], [0, 0, 0], [2, 3], np.array([4, 0]), set()]
        sampler = ExplicitGraphTopology(lists).bind(6)
        assert_csr(sampler, reference_csr(lists, 6))

    def test_out_of_range_message_names_the_first_agent(self):
        lists = [[1], [0, 2], [7, 0], [-1]]
        with pytest.raises(ConfigurationError) as expected:
            reference_csr(lists, 4)
        with pytest.raises(ConfigurationError) as got:
            ExplicitGraphTopology(lists).bind(4)
        assert str(got.value) == str(expected.value)
        assert "agent 2 " in str(got.value)

    def test_wrong_number_of_lists_rejected(self):
        with pytest.raises(ConfigurationError, match="one neighbor list per agent"):
            ExplicitGraphTopology([[1], [0]]).bind(3)


class TestCompleteTopology:
    def test_is_uniform_and_static(self):
        sampler = CompleteTopology()
        assert sampler.is_uniform
        assert not sampler.dynamic

    def test_sample_matches_legacy_stream_exactly(self):
        # The complete graph IS the model: the sample must be the same
        # generator call the untopologized engines make, bit for bit.
        sampler = CompleteTopology().bind(37)
        sampled = sampler.sample(None, 5, np.random.default_rng(99))
        expected = np.random.default_rng(99).integers(0, 37, size=(37, 5))
        assert np.array_equal(sampled, expected)

    def test_subset_sampling(self):
        sampler = CompleteTopology().bind(20)
        agents = np.array([3, 7, 11])
        sampled = sampler.sample(agents, 4, np.random.default_rng(0))
        assert sampled.shape == (3, 4)
        assert sampled.min() >= 0 and sampled.max() < 20

    def test_degrees_and_counts(self):
        sampler = CompleteTopology().bind(10)
        assert np.array_equal(sampler.degrees(), np.full(10, 10))
        values = np.array([1, 1, 0, 1, 0, 0, 0, 0, 0, 0])
        counts = sampler.neighbor_symbol_counts(values, 1)
        assert np.array_equal(counts, np.full(10, 3))


class TestGraphTopology:
    def test_cycle_neighbors_only(self):
        sampler = LatticeTopology("cycle").bind(12)
        sampled = sampler.sample(None, 50, np.random.default_rng(1))
        for agent in range(12):
            neighbors = {(agent - 1) % 12, (agent + 1) % 12}
            assert set(sampled[agent]) <= neighbors

    def test_neighbor_symbol_counts_matches_bruteforce(self):
        graph = build_graph("regular", 30, degree=4, rng=7)
        sampler = ExplicitGraphTopology(graph).bind(30)
        values = np.random.default_rng(2).integers(0, 2, size=30)
        counts = sampler.neighbor_symbol_counts(values, 1)
        for agent in range(30):
            expected = sum(values[v] == 1 for v in graph.neighbors(agent))
            assert counts[agent] == expected

    def test_isolated_agent_gets_self_loop(self):
        # degree-0 nodes would make sampling impossible; the CSR build
        # attaches a self-loop so every agent has at least one neighbor.
        sampler = ExplicitGraphTopology([[1], [0], []]).bind(3)
        assert sampler.degrees()[2] == 1
        sampled = sampler.sample(np.array([2]), 8, np.random.default_rng(0))
        assert np.all(sampled == 2)

    def test_rejects_out_of_range_neighbors(self):
        with pytest.raises(ConfigurationError):
            ExplicitGraphTopology([[5], [0]]).bind(2)

    def test_bind_twice_rejected(self):
        sampler = LatticeTopology("cycle").bind(8)
        with pytest.raises(ConfigurationError):
            sampler.bind(8)
        # ensure_bound tolerates the same n, rejects a different one.
        assert sampler.ensure_bound(8) is sampler
        with pytest.raises(ConfigurationError):
            sampler.ensure_bound(9)

    def test_sample_before_bind_rejected(self):
        with pytest.raises(ConfigurationError):
            LatticeTopology("grid").sample(None, 2, np.random.default_rng(0))


class TestRandomRegularTopology:
    def test_degrees_uniform(self):
        sampler = RandomRegularTopology(degree=6).bind(40, 0)
        assert np.all(sampler.degrees() == 6)

    def test_degree_clamped_to_population(self):
        # degree > n - 1 is infeasible; the sampler clamps (and fixes
        # parity) instead of failing on small populations.
        sampler = RandomRegularTopology(degree=10).bind(6, 0)
        assert np.all(sampler.degrees() <= 5)

    def test_binding_seed_determinism(self):
        a = RandomRegularTopology(degree=4).bind(30, 11)
        b = RandomRegularTopology(degree=4).bind(30, 11)
        c = RandomRegularTopology(degree=4).bind(30, 12)
        assert np.array_equal(a._indices, b._indices)
        assert not np.array_equal(a._indices, c._indices)


class TestGeometricTopology:
    def test_connectivity_radius_default(self):
        sampler = GeometricTopology().bind(100, 3)
        assert sampler.degrees().min() >= 1
        assert sampler.points.shape == (100, 2)

    def test_explicit_radius(self):
        wide = GeometricTopology(radius=1.4).bind(20, 0)
        # radius covers the unit square: everyone sees everyone else.
        assert np.all(wide.degrees() == 19)


class TestChurnTopology:
    def test_dynamic_flag_and_evolution(self):
        sampler = ChurnTopology(degree=4, churn_rate=0.5).bind(24, 0)
        assert sampler.dynamic
        before = sampler.degrees().copy()
        generator = np.random.default_rng(1)
        sampler.begin_round(0, generator)
        sampler.begin_round(1, generator)
        after = sampler.degrees()
        assert before.shape == after.shape
        assert after.min() >= 1
        # With churn_rate=0.5 over two rounds the edge set must move.
        assert not np.array_equal(before, after)

    def test_samples_stay_valid_under_churn(self):
        sampler = ChurnTopology(degree=4, churn_rate=0.3).bind(16, 0)
        generator = np.random.default_rng(2)
        for round_index in range(5):
            sampler.begin_round(round_index, generator)
            sampled = sampler.sample(None, 6, generator)
            assert sampled.shape == (16, 6)
            assert sampled.min() >= 0 and sampled.max() < 16


class TestFactory:
    def test_string_dispatch_covers_all_kinds(self):
        for kind in TOPOLOGY_KINDS:
            sampler = create_topology(kind)
            assert isinstance(sampler, TopologySampler)
            assert sampler.kind == kind

    def test_none_is_complete(self):
        assert create_topology(None).is_uniform

    def test_sampler_passthrough(self):
        sampler = RandomRegularTopology(degree=4)
        assert create_topology(sampler) is sampler

    def test_networkx_graph_accepted(self):
        graph = build_graph("cycle", 10)
        sampler = create_topology(graph)
        assert isinstance(sampler, GraphTopology)
        # edge_count is directed adjacency entries: a 10-cycle has 20.
        assert sampler.ensure_bound(10).edge_count() == 20

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            create_topology("smallworld")

    def test_resolve_drops_uniform(self):
        rng = np.random.default_rng(0)
        assert resolve_topology(None, 16, rng) is None
        assert resolve_topology("complete", 16, rng) is None
        sampler = resolve_topology("cycle", 16, rng)
        assert sampler is not None and sampler.kind == "cycle"
