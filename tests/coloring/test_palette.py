"""Unit tests for palette reduction (Section V)."""

import numpy as np
import pytest

from repro.algorithms.classical import greedy_coloring
from repro.coloring.palette import reduce_palette, reduce_palette_simulated
from repro.errors import ColoringError
from repro.geometry.deployment import uniform_deployment
from repro.graphs.coloring import Coloring
from repro.graphs.power import power_graph
from repro.graphs.udg import UnitDiskGraph
from repro.sinr.params import PhysicalParams


@pytest.fixture(scope="module")
def params():
    return PhysicalParams().with_r_t(1.0)


@pytest.fixture(scope="module")
def setup(params):
    dep = uniform_deployment(90, 6.0, seed=12)
    graph = UnitDiskGraph(dep.positions, params.r_t)
    d = params.mac_distance
    wide = greedy_coloring(power_graph(graph, d + 1))
    return graph, wide


class TestLogicalReduction:
    def test_palette_at_most_delta_plus_one(self, setup):
        graph, wide = setup
        reduced = reduce_palette(graph, wide)
        assert reduced.max_color <= graph.max_degree
        assert reduced.num_colors <= graph.max_degree + 1

    def test_result_proper(self, setup):
        graph, wide = setup
        reduced = reduce_palette(graph, wide)
        assert reduced.is_valid(graph.positions, graph.radius)

    def test_reduces_wide_palette(self, setup):
        graph, wide = setup
        reduced = reduce_palette(graph, wide)
        assert reduced.num_colors < wide.num_colors

    def test_rejects_improper_input(self, setup):
        graph, _ = setup
        bad = Coloring(np.zeros(graph.n, dtype=np.int64))
        with pytest.raises(ColoringError):
            reduce_palette(graph, bad)

    def test_rejects_size_mismatch(self, setup):
        graph, _ = setup
        with pytest.raises(ColoringError):
            reduce_palette(graph, Coloring(np.array([0, 1])))

    def test_already_tight_palette_stays_tight(self, setup):
        graph, _ = setup
        tight = greedy_coloring(graph)
        reduced = reduce_palette(graph, tight)
        assert reduced.num_colors <= tight.num_colors + 1
        assert reduced.is_valid(graph.positions, graph.radius)


class TestSimulatedReduction:
    def test_theorem3_input_is_lossless(self, setup, params):
        graph, wide = setup
        report = reduce_palette_simulated(graph, wide, params)
        assert report.interference_free
        assert report.lost == 0
        assert report.coloring.is_valid(graph.positions, graph.radius)
        assert report.coloring.max_color <= graph.max_degree

    def test_matches_logical_procedure_when_lossless(self, setup, params):
        graph, wide = setup
        report = reduce_palette_simulated(graph, wide, params)
        logical = reduce_palette(graph, wide)
        np.testing.assert_array_equal(report.coloring.colors, logical.colors)

    def test_one_slot_per_input_color(self, setup, params):
        graph, wide = setup
        report = reduce_palette_simulated(graph, wide, params)
        assert report.slots_used == wide.num_colors

    def test_distance1_input_loses_announcements(self, params):
        # a dense deployment with a distance-1 coloring: same-color nodes
        # just beyond R_T of each other transmit together and interfere
        dep = uniform_deployment(150, 6.0, seed=3)
        graph = UnitDiskGraph(dep.positions, params.r_t)
        tight = greedy_coloring(graph)
        report = reduce_palette_simulated(graph, tight, params)
        assert report.lost > 0
