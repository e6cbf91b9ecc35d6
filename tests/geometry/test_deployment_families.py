"""Tests for the corridor and ring deployment families."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.deployment import corridor_deployment, ring_deployment
from repro.graphs.bfs import diameter
from repro.graphs.udg import UnitDiskGraph


class TestCorridor:
    def test_inside_bounds(self):
        dep = corridor_deployment(100, length=30.0, width=1.5, seed=0)
        assert dep.positions[:, 0].min() >= 0.0
        assert dep.positions[:, 0].max() <= 30.0
        assert dep.positions[:, 1].max() <= 1.5

    def test_long_diameter(self):
        dep = corridor_deployment(120, length=30.0, width=1.0, seed=1)
        graph = UnitDiskGraph(dep.positions, radius=1.0)
        if graph.is_connected():
            assert diameter(graph) >= 15  # near-1D chain

    def test_deterministic(self):
        a = corridor_deployment(20, 10.0, 1.0, seed=5)
        b = corridor_deployment(20, 10.0, 1.0, seed=5)
        np.testing.assert_array_equal(a.positions, b.positions)

    def test_metadata(self):
        dep = corridor_deployment(10, 10.0, 2.0, seed=0)
        assert dep.kind == "corridor"
        assert dep.metadata == {"length": 10.0, "width": 2.0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            corridor_deployment(0, 10.0, 1.0, seed=0)
        with pytest.raises(ConfigurationError):
            corridor_deployment(5, 10.0, 0.0, seed=0)


class TestRing:
    def test_points_near_circle(self):
        dep = ring_deployment(60, radius=5.0, jitter=0.0, seed=0)
        center = np.array([5.0, 5.0])
        radii = np.hypot(*(dep.positions - center).T)
        np.testing.assert_allclose(radii, 5.0, atol=1e-9)

    def test_jitter_spreads_radially(self):
        dep = ring_deployment(200, radius=5.0, jitter=0.3, seed=1)
        center = np.array([5.0, 5.0])
        radii = np.hypot(*(dep.positions - center).T)
        assert radii.std() > 0.1

    def test_angles_sorted_for_chain_structure(self):
        dep = ring_deployment(50, radius=5.0, jitter=0.0, seed=2)
        center = np.array([5.0, 5.0])
        angles = np.arctan2(*(dep.positions - center).T[::-1])
        # sorted angles modulo the wrap point
        wraps = int(np.sum(np.diff(angles) < 0))
        assert wraps <= 1

    def test_dense_ring_is_cycle_like(self):
        dep = ring_deployment(80, radius=5.0, jitter=0.0, seed=3)
        graph = UnitDiskGraph(dep.positions, radius=1.0)
        # random angular gaps can exceed the radius occasionally, but the
        # typical node sits in a chain with neighbors on both sides
        assert np.median(graph.degrees) >= 2
        # and nobody is adjacent to the far side of the ring
        assert graph.max_degree < 20

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ring_deployment(10, radius=0.0, jitter=0.1, seed=0)
        with pytest.raises(ConfigurationError):
            ring_deployment(10, radius=1.0, jitter=-0.1, seed=0)


class TestProtocolOnNewFamilies:
    def test_mw_on_corridor(self):
        from repro import PhysicalParams
        from repro.coloring.runner import run_mw_coloring

        params = PhysicalParams().with_r_t(1.0)
        dep = corridor_deployment(60, length=20.0, width=1.2, seed=4)
        result = run_mw_coloring(dep, params, seed=3)
        assert result.stats.completed
        assert result.is_proper()
        assert not result.audit_violations

    def test_mw_on_ring(self):
        from repro import PhysicalParams
        from repro.coloring.runner import run_mw_coloring

        params = PhysicalParams().with_r_t(1.0)
        dep = ring_deployment(60, radius=6.0, jitter=0.2, seed=4)
        result = run_mw_coloring(dep, params, seed=3)
        assert result.stats.completed
        assert result.is_proper()
        assert not result.audit_violations
