"""Property-based tests for the geometric substrate (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.density import phi_empirical, phi_upper_bound
from repro.geometry.grid_index import GridIndex, candidate_pairs
from repro.geometry.point import distance, distance_matrix

coordinate = st.floats(
    min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False
)
point = st.tuples(coordinate, coordinate)


def point_arrays(min_size=1, max_size=40):
    return st.lists(point, min_size=min_size, max_size=max_size).map(
        lambda pts: np.asarray(pts, dtype=np.float64)
    )


class TestDistanceProperties:
    @given(point, point)
    def test_symmetry(self, p, q):
        assert distance(p, q) == distance(q, p)

    @given(point, point, point)
    def test_triangle_inequality(self, p, q, r):
        assert distance(p, r) <= distance(p, q) + distance(q, r) + 1e-7

    @given(point)
    def test_identity(self, p):
        assert distance(p, p) == 0.0

    @given(point, point)
    def test_nonnegative(self, p, q):
        assert distance(p, q) >= 0.0

    @given(point_arrays(max_size=15), point_arrays(max_size=15))
    @settings(max_examples=30)
    def test_matrix_agrees_with_scalar(self, a, b):
        matrix = distance_matrix(a, b)
        for i in range(len(a)):
            for j in range(len(b)):
                assert abs(matrix[i, j] - distance(a[i], b[j])) < 1e-9


class TestGridIndexProperties:
    @given(
        point_arrays(min_size=1, max_size=50),
        point,
        st.floats(min_value=0.0, max_value=20.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    @settings(max_examples=40)
    def test_query_equals_brute_force(self, positions, center, radius, cell):
        index = GridIndex(positions, cell_size=cell)
        found = set(int(i) for i in index.query_disc(center, radius))
        center_arr = np.asarray(center)
        for i, pos in enumerate(positions):
            inside = distance(pos, center_arr) <= radius
            # tolerate float boundary fuzz: strict mismatches only
            margin = abs(distance(pos, center_arr) - radius)
            if margin < 1e-9:
                continue
            assert (i in found) == inside

    @given(point_arrays(min_size=2, max_size=40), st.floats(0.1, 5.0))
    @settings(max_examples=30)
    def test_pairs_symmetric_coverage(self, positions, radius):
        i, j, sq = candidate_pairs(positions, radius)
        near = sq <= radius * radius
        pairs = list(zip(i[near].tolist(), j[near].tolist()))
        for a, b in pairs:
            assert a < b
            assert distance(positions[a], positions[b]) <= radius + 1e-9
        # complete and in (i, j) order: exactly the brute-force pairs
        diff = positions[:, None, :] - positions[None, :, :]
        close = np.triu(np.einsum("ijk,ijk->ij", diff, diff) <= radius * radius, k=1)
        assert pairs == list(zip(*(axis.tolist() for axis in np.nonzero(close))))


class TestPhiProperties:
    @given(point_arrays(min_size=1, max_size=40), st.floats(0.2, 5.0))
    @settings(max_examples=30)
    def test_empirical_at_most_analytic(self, positions, radius):
        r_t = 1.0
        assert phi_empirical(positions, radius, r_t) <= max(
            1, phi_upper_bound(radius, r_t)
        )

    @given(st.floats(0.0, 20.0), st.floats(0.1, 3.0))
    def test_analytic_positive(self, radius, r_t):
        assert phi_upper_bound(radius, r_t) >= 1
