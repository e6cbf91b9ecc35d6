"""Property-based tests for coloring structures and baselines."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.classical import greedy_coloring
from repro.coloring.palette import reduce_palette
from repro.graphs.coloring import Coloring
from repro.graphs.independent import greedy_mis, is_independent_set
from repro.graphs.power import power_graph
from repro.graphs.udg import UnitDiskGraph

coordinate = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def positions_strategy(min_size=1, max_size=30):
    return st.lists(
        st.tuples(coordinate, coordinate), min_size=min_size, max_size=max_size
    ).map(lambda pts: np.asarray(pts, dtype=np.float64))


class TestGreedyColoringProperties:
    @given(positions_strategy())
    @settings(max_examples=40)
    def test_always_proper(self, positions):
        graph = UnitDiskGraph(positions, radius=1.0)
        coloring = greedy_coloring(graph)
        assert coloring.is_valid(positions, 1.0)

    @given(positions_strategy())
    @settings(max_examples=40)
    def test_palette_bounded_by_degree(self, positions):
        graph = UnitDiskGraph(positions, radius=1.0)
        coloring = greedy_coloring(graph)
        assert coloring.max_color <= graph.max_degree

    @given(positions_strategy(min_size=2), st.floats(1.1, 4.0))
    @settings(max_examples=30)
    def test_power_coloring_valid_at_distance(self, positions, d):
        graph = UnitDiskGraph(positions, radius=1.0)
        coloring = greedy_coloring(power_graph(graph, d))
        assert coloring.is_valid(positions, 1.0, d=d)


class TestPaletteReductionProperties:
    @given(positions_strategy(min_size=2), st.floats(1.5, 3.0))
    @settings(max_examples=30)
    def test_reduction_preserves_validity(self, positions, d):
        graph = UnitDiskGraph(positions, radius=1.0)
        wide = greedy_coloring(power_graph(graph, d))
        reduced = reduce_palette(graph, wide)
        assert reduced.is_valid(positions, 1.0)
        assert reduced.max_color <= graph.max_degree


class TestMisProperties:
    @given(positions_strategy(min_size=1))
    @settings(max_examples=40)
    def test_greedy_mis_independent_and_maximal(self, positions):
        mis = greedy_mis(positions, 1.0)
        assert is_independent_set(positions, mis, 1.0)
        chosen = set(mis)
        for i in range(len(positions)):
            if i in chosen:
                continue
            assert any(
                np.hypot(*(positions[i] - positions[m])) <= 1.0 for m in mis
            )


class TestColoringTypeProperties:
    @given(st.lists(st.integers(0, 100), min_size=1, max_size=40))
    def test_compaction_minimises_palette(self, values):
        coloring = Coloring(np.asarray(values, dtype=np.int64))
        compact = coloring.compacted()
        assert compact.num_colors == coloring.num_colors
        assert compact.max_color == compact.num_colors - 1

    @given(st.lists(st.integers(0, 5), min_size=2, max_size=20))
    def test_class_sizes_sum_to_n(self, values):
        coloring = Coloring(np.asarray(values, dtype=np.int64))
        assert sum(coloring.class_sizes().values()) == coloring.n
