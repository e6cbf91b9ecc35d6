"""Unit tests for the uniform grid spatial index."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.grid_index import GridIndex, candidate_pairs, unit_disk_csr


def brute_force_disc(positions, center, radius):
    diff = positions - np.asarray(center)[None, :]
    return np.flatnonzero(np.einsum("ij,ij->i", diff, diff) <= radius * radius)


class TestQueryDisc:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        positions = rng.uniform(0, 10, size=(200, 2))
        index = GridIndex(positions, cell_size=1.0)
        for _ in range(25):
            center = rng.uniform(0, 10, size=2)
            radius = rng.uniform(0.1, 3.0)
            expected = brute_force_disc(positions, center, radius)
            np.testing.assert_array_equal(
                index.query_disc(center, radius), expected
            )

    def test_zero_radius_finds_exact_point(self):
        positions = np.array([[1.0, 1.0], [2.0, 2.0]])
        index = GridIndex(positions, cell_size=0.5)
        np.testing.assert_array_equal(index.query_disc((1.0, 1.0), 0.0), [0])

    def test_far_query_is_empty(self):
        positions = np.array([[0.0, 0.0]])
        index = GridIndex(positions, cell_size=1.0)
        assert index.query_disc((100.0, 100.0), 1.0).size == 0

    def test_negative_radius_rejected(self):
        index = GridIndex(np.zeros((1, 2)), cell_size=1.0)
        with pytest.raises(ConfigurationError):
            index.query_disc((0, 0), -1.0)

    def test_negative_coordinates_supported(self):
        positions = np.array([[-5.0, -5.0], [-4.5, -5.0], [5.0, 5.0]])
        index = GridIndex(positions, cell_size=1.0)
        found = index.query_disc((-5.0, -5.0), 1.0)
        np.testing.assert_array_equal(found, [0, 1])

    def test_results_sorted(self):
        rng = np.random.default_rng(9)
        positions = rng.uniform(0, 5, size=(60, 2))
        index = GridIndex(positions, cell_size=0.7)
        found = index.query_disc((2.5, 2.5), 2.0)
        assert np.all(np.diff(found) > 0)


class TestQueryAnnulus:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        positions = rng.uniform(0, 8, size=(150, 2))
        index = GridIndex(positions, cell_size=1.0)
        center = (4.0, 4.0)
        inner, outer = 1.0, 3.0
        diff = positions - np.asarray(center)[None, :]
        sq = np.einsum("ij,ij->i", diff, diff)
        expected = np.flatnonzero((sq >= inner**2) & (sq <= outer**2))
        np.testing.assert_array_equal(
            index.query_annulus(center, inner, outer), expected
        )

    def test_rejects_inverted_radii(self):
        index = GridIndex(np.zeros((1, 2)), cell_size=1.0)
        with pytest.raises(ConfigurationError):
            index.query_annulus((0, 0), 2.0, 1.0)


class TestNeighbors:
    def test_excludes_self(self):
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 3.0]])
        index = GridIndex(positions, cell_size=1.0)
        np.testing.assert_array_equal(index.neighbors_within(0, 1.0), [1])

    def test_candidate_pairs_each_once(self):
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [0.9, 0.0], [5.0, 5.0]])
        i, j, sq = candidate_pairs(positions, 1.0)
        near = sq <= 1.0
        pairs = list(zip(i[near].tolist(), j[near].tolist()))
        assert pairs == [(0, 1), (0, 2), (1, 2)]

    def test_unit_disk_csr_lists_every_neighbour_ascending(self):
        rng = np.random.default_rng(3)
        positions = rng.uniform(0, 6, size=(150, 2))
        start, adjacent = unit_disk_csr(positions, 1.0)
        assert start.tolist()[0] == 0 and start.tolist()[-1] == adjacent.size
        for u in range(len(positions)):
            expected = brute_force_disc(positions, positions[u], 1.0)
            expected = expected[expected != u]
            np.testing.assert_array_equal(adjacent[start[u] : start[u + 1]], expected)

    def test_len(self):
        index = GridIndex(np.zeros((7, 2)), cell_size=1.0)
        assert len(index) == 7

    def test_cell_size_validation(self):
        with pytest.raises(ConfigurationError):
            GridIndex(np.zeros((1, 2)), cell_size=0.0)

    def test_coincident_points_all_found(self):
        positions = np.zeros((5, 2))
        index = GridIndex(positions, cell_size=1.0)
        assert index.query_disc((0, 0), 0.1).size == 5
