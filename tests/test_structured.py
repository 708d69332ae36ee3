"""Tests for stable-network flooding (the intro's counterpoint)."""

import math

import networkx as nx
import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.model import StableFlooding, build_graph
from repro.rng import derive_seed
from repro.topology import graphs
from repro.topology.graphs import random_regular_edges

#: (n, d) cases for the pairing oracle: d = 1, d = n - 1 and small
#: cubic graphs, where passes fail and the pairing restarts.
REGULAR_CASES = [
    (2, 1), (4, 3), (5, 4), (6, 3), (6, 5), (7, 6), (8, 3), (10, 1),
    (10, 9), (12, 3), (20, 4), (30, 1), (50, 7), (64, 8), (100, 3),
]


class TestBuildGraph:
    def test_complete(self):
        graph = build_graph("complete", 10)
        assert graph.number_of_edges() == 45

    def test_path_and_cycle(self):
        assert build_graph("path", 10).number_of_edges() == 9
        assert build_graph("cycle", 10).number_of_edges() == 10

    def test_regular(self):
        graph = build_graph("regular", 20, degree=4, rng=0)
        assert all(d == 4 for _, d in graph.degree())

    def test_regular_parity_check(self):
        with pytest.raises(ConfigurationError):
            build_graph("regular", 15, degree=3)

    def test_grid(self):
        graph = build_graph("grid", 16)
        assert graph.number_of_nodes() == 16

    def test_grid_exact_square_unchanged(self):
        # Exact squares keep the historical side x side lattice
        # bit-identically — same node set, same edge set.
        graph = build_graph("grid", 16)
        reference = nx.convert_node_labels_to_integers(
            nx.grid_2d_graph(4, 4), ordering="sorted"
        )
        assert set(graph.edges) == set(reference.edges)

    def test_grid_non_square(self):
        # The old contract raised on non-squares; build_graph now
        # produces a near-square side x ceil(n/side) lattice trimmed
        # to exactly n nodes, and it stays connected.
        for n in (10, 23, 240):
            graph = build_graph("grid", n)
            assert graph.number_of_nodes() == n
            assert set(graph.nodes) == set(range(n))
            assert nx.is_connected(graph)
            degrees = [d for _, d in graph.degree()]
            assert max(degrees) <= 4 and min(degrees) >= 1

    def test_regular_seed_derivation(self):
        # Regression for the seeding bugfix: the regular builder used to
        # seed networkx with generator.integers(0, 2**31) — a biased,
        # range-truncated draw.  It now derives the seed through
        # SeedSequence spawning (derive_seed), which changes the graphs
        # for a fixed rng...
        old_seed = int(np.random.default_rng(0).integers(0, 2**31))
        new_graph = build_graph("regular", 20, degree=4, rng=0)
        old_graph = nx.random_regular_graph(4, 20, seed=old_seed)
        assert set(new_graph.edges) != set(old_graph.edges)
        # ...and pins the new behavior: the graph IS the networkx graph
        # built from the derived seed.
        expected = nx.random_regular_graph(4, 20, seed=derive_seed(0))
        assert set(new_graph.edges) == set(expected.edges)

    @pytest.mark.parametrize("n,d", REGULAR_CASES)
    def test_regular_edges_match_networkx_pairing(self, n, d):
        for seed in range(24):
            expected = nx.random_regular_graph(d, n, seed=seed)
            edges = random_regular_edges(n, d, seed)
            assert edges == {tuple(sorted(edge)) for edge in expected.edges}
            assert len(edges) == n * d // 2

    def test_regular_pairing_restarts_are_exercised(self, monkeypatch):
        # The oracle cases above must include failed passes that restart
        # the pairing from the full stub list (networkx's retry loop).
        full_shuffles = []

        class CountingRandom(graphs.random.Random):
            def shuffle(self, x):
                full_shuffles.append(len(x) == self.stubs)
                super().shuffle(x)

        monkeypatch.setattr(graphs.random, "Random", CountingRandom)
        restarts = 0
        for n, d in ((6, 3), (8, 3), (12, 3)):
            CountingRandom.stubs = n * d
            for seed in range(24):
                full_shuffles.clear()
                random_regular_edges(n, d, seed)
                restarts += sum(full_shuffles) - 1
        assert restarts > 0

    def test_regular_zero_degree_is_empty(self):
        assert random_regular_edges(5, 0, 1) == set()
        assert build_graph("regular", 5, degree=0, rng=1).number_of_edges() == 0

    @pytest.mark.parametrize("n,d,seed", [(20, 4, 0), (256, 4, 1), (65, 64, 2), (50, 3, 3)])
    def test_regular_neighbor_order_matches_networkx(self, n, d, seed):
        # StableFlooding teaches from the first informed neighbour, so
        # the order of graph.neighbors is part of the contract.
        graph = build_graph("regular", n, degree=d, rng=seed)
        expected = nx.random_regular_graph(d, n, seed=derive_seed(seed))
        assert list(graph.nodes) == list(expected.nodes)
        for node in range(n):
            assert list(graph.neighbors(node)) == list(expected.neighbors(node))

    @pytest.mark.parametrize("n,d,message", [
        (15, 3, "must be even"), (6, 6, "0 <= degree < n"),
        (4, 6, "0 <= degree < n"), (4, -2, "0 <= degree < n"),
    ])
    def test_regular_parity_and_range_errors_are_typed(self, n, d, message):
        with pytest.raises(ConfigurationError, match=message):
            random_regular_edges(n, d, 0)
        with pytest.raises(ConfigurationError, match=message):
            build_graph("regular", n, degree=d, rng=0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            build_graph("torus", 10)


class TestStableFlooding:
    def test_validation(self):
        graph = build_graph("path", 10)
        with pytest.raises(ConfigurationError):
            StableFlooding(graph, delta=0.5)
        with pytest.raises(ConfigurationError):
            StableFlooding(nx.path_graph(1), delta=0.1)
        flooding = StableFlooding(graph, delta=0.1)
        with pytest.raises(ConfigurationError):
            flooding.run([])

    def test_default_repetitions(self):
        graph = build_graph("path", 100)
        flooding = StableFlooding(graph, delta=0.2)
        expected = math.ceil(3 * math.log(100) / 0.36)
        assert flooding.repetitions == expected

    def test_complete_graph_one_stage(self, rng):
        flooding = StableFlooding(build_graph("complete", 64), delta=0.2)
        result = flooding.run([0], rng=rng)
        assert result.converged
        assert result.stages == 1

    def test_path_takes_diameter_stages(self, rng):
        flooding = StableFlooding(build_graph("path", 50), delta=0.1)
        result = flooding.run([0], rng=rng)
        assert result.converged
        assert result.stages == 49

    def test_expander_takes_log_stages(self, rng):
        flooding = StableFlooding(
            build_graph("regular", 256, degree=4, rng=1), delta=0.2
        )
        result = flooding.run([0], rng=rng)
        assert result.converged
        assert result.stages <= 4 * math.log2(256)

    def test_spreads_bit_zero_too(self, rng):
        flooding = StableFlooding(build_graph("cycle", 30), delta=0.1)
        result = flooding.run([5], source_bit=0, rng=rng)
        assert result.converged
        assert result.final_bits.sum() == 0

    def test_disconnected_graph_does_not_converge(self, rng):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        flooding = StableFlooding(graph, delta=0.1)
        result = flooding.run([0], rng=rng)
        assert not result.converged

    def test_noise_resilience_via_redundancy(self, rng):
        """High per-look noise, yet the flood stays accurate — the
        intro's point that stability enables denoising by redundancy."""
        flooding = StableFlooding(
            build_graph("regular", 128, degree=4, rng=2), delta=0.4
        )
        result = flooding.run([0], rng=rng)
        assert result.converged

    def test_structure_beats_well_mixed_at_h1(self, rng):
        """The quantitative intro claim: stable-expander flooding is far
        faster than the well-mixed PULL(1) horizon at the same n, delta."""
        from repro.model.config import PopulationConfig
        from repro.protocols import FastSourceFilter
        from repro.types import SourceCounts

        n, delta = 256, 0.2
        flooding = StableFlooding(
            build_graph("regular", n, degree=4, rng=3), delta=delta
        )
        structured = flooding.run([0], rng=rng)
        config = PopulationConfig(n=n, sources=SourceCounts(0, 1), h=1)
        well_mixed_rounds = FastSourceFilter(config, delta).schedule.total_rounds
        assert structured.converged
        assert structured.rounds * 20 < well_mixed_rounds
