"""Unit tests for baseline coloring algorithms."""

import numpy as np
import pytest

from repro.algorithms.classical import greedy_coloring, randomized_coloring
from repro.errors import ColoringError
from repro.geometry.deployment import uniform_deployment
from repro.graphs.udg import UnitDiskGraph


@pytest.fixture(scope="module")
def graph():
    dep = uniform_deployment(100, 6.0, seed=9)
    return UnitDiskGraph(dep.positions, radius=1.0)


class TestGreedy:
    def test_proper(self, graph):
        coloring = greedy_coloring(graph)
        assert coloring.is_valid(graph.positions, graph.radius)

    def test_at_most_delta_plus_one_colors(self, graph):
        coloring = greedy_coloring(graph)
        assert coloring.max_color <= graph.max_degree
        assert coloring.num_colors <= graph.max_degree + 1

    def test_order_changes_result_but_not_validity(self, graph):
        rng = np.random.default_rng(0)
        order = rng.permutation(graph.n)
        coloring = greedy_coloring(graph, order=order)
        assert coloring.is_valid(graph.positions, graph.radius)

    def test_bad_order_rejected(self, graph):
        with pytest.raises(ColoringError):
            greedy_coloring(graph, order=[0, 0, 1])

    def test_isolated_nodes_all_color_zero(self):
        positions = np.array([[0.0, 0.0], [5.0, 0.0], [10.0, 0.0]])
        graph = UnitDiskGraph(positions, radius=1.0)
        coloring = greedy_coloring(graph)
        assert set(coloring.colors) == {0}

    def test_clique_uses_exactly_size_colors(self):
        # four nodes all within radius 1 of each other
        positions = np.array([[0, 0], [0.1, 0], [0, 0.1], [0.1, 0.1]], dtype=float)
        graph = UnitDiskGraph(positions, radius=1.0)
        coloring = greedy_coloring(graph)
        assert coloring.num_colors == 4


class TestRandomized:
    def test_proper_and_bounded(self, graph):
        coloring, rounds = randomized_coloring(graph, seed=0)
        assert coloring.is_valid(graph.positions, graph.radius)
        assert coloring.max_color <= graph.max_degree
        assert rounds >= 1

    def test_deterministic_per_seed(self, graph):
        a, _ = randomized_coloring(graph, seed=5)
        b, _ = randomized_coloring(graph, seed=5)
        np.testing.assert_array_equal(a.colors, b.colors)

    def test_rounds_logarithmic_in_practice(self, graph):
        _, rounds = randomized_coloring(graph, seed=1)
        assert rounds <= 60  # O(log n) with slack

    def test_non_convergence_raises(self, graph):
        with pytest.raises(ColoringError):
            randomized_coloring(graph, seed=0, max_rounds=1)

    def test_single_node(self):
        graph = UnitDiskGraph(np.zeros((1, 2)), radius=1.0)
        coloring, _ = randomized_coloring(graph, seed=0)
        assert coloring.colors[0] == 0
