"""Integration tests for the Theorem 3 TDMA audit."""

import numpy as np
import pytest

from repro import PhysicalParams, uniform_deployment
from repro.algorithms.classical import greedy_coloring
from repro.errors import ScheduleError
from repro.graphs.coloring import Coloring
from repro.graphs.power import power_graph
from repro.graphs.udg import UnitDiskGraph
from repro.mac.tdma import TDMASchedule
from repro.invariants import verify_tdma_broadcast


@pytest.fixture(scope="module")
def params():
    return PhysicalParams().with_r_t(1.0)


@pytest.fixture(scope="module")
def dense(params):
    dep = uniform_deployment(130, 7.0, seed=14)
    return UnitDiskGraph(dep.positions, params.r_t)


class TestTheorem3:
    def test_theorem3_distance_is_interference_free(self, dense, params):
        d = params.mac_distance
        coloring = greedy_coloring(power_graph(dense, d + 1))
        report = verify_tdma_broadcast(dense, TDMASchedule(coloring), params)
        assert report.interference_free
        assert report.success_rate == 1.0
        assert report.failures == ()

    def test_distance1_coloring_fails(self, dense, params):
        coloring = greedy_coloring(dense)
        report = verify_tdma_broadcast(dense, TDMASchedule(coloring), params)
        assert not report.interference_free
        assert report.success_rate < 1.0
        assert len(report.failures) > 0

    def test_distance2_coloring_still_fails(self, dense, params):
        # the paper's motivating observation: the classical distance-2
        # (graph-model) fix does NOT suffice under additive SINR
        coloring = greedy_coloring(power_graph(dense, 2.0))
        report = verify_tdma_broadcast(dense, TDMASchedule(coloring), params)
        assert not report.interference_free

    def test_monotone_in_distance(self, dense, params):
        rates = []
        for k in (1.0, 2.0, params.mac_distance + 1):
            coloring = greedy_coloring(power_graph(dense, k))
            report = verify_tdma_broadcast(dense, TDMASchedule(coloring), params)
            rates.append(report.success_rate)
        assert rates[0] <= rates[1] <= rates[2] == 1.0

    def test_expected_counts_all_pairs(self, dense, params):
        coloring = greedy_coloring(dense)
        report = verify_tdma_broadcast(dense, TDMASchedule(coloring), params)
        assert report.expected == 2 * dense.edge_count

    def test_size_mismatch_rejected(self, dense, params):
        schedule = TDMASchedule(Coloring(np.array([0, 1])))
        with pytest.raises(ScheduleError):
            verify_tdma_broadcast(dense, schedule, params)

    def test_sparse_graph_trivially_free(self, params):
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [20.0, 20.0]])
        graph = UnitDiskGraph(positions, params.r_t)
        coloring = greedy_coloring(power_graph(graph, params.mac_distance + 1))
        report = verify_tdma_broadcast(graph, TDMASchedule(coloring), params)
        assert report.interference_free
