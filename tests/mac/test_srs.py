"""Integration tests for single-round simulation (Corollary 1)."""

import pytest

from repro import PhysicalParams, uniform_deployment
from repro.algorithms.classical import greedy_coloring
from repro.errors import ScheduleError
from repro.graphs.power import power_graph
from repro.graphs.udg import UnitDiskGraph
from repro.mac.srs import simulate_uniform_algorithm
from repro.mac.tdma import TDMASchedule
from repro.messaging.algorithms import (
    BFSTreeAlgorithm,
    FloodingBroadcast,
    MaxIdLeaderElection,
)
from repro.messaging.model import run_uniform_rounds


@pytest.fixture(scope="module")
def params():
    return PhysicalParams().with_r_t(1.0)


@pytest.fixture(scope="module")
def world(params):
    dep = uniform_deployment(100, 6.0, seed=24)  # connected for this seed
    graph = UnitDiskGraph(dep.positions, params.r_t)
    assert graph.is_connected()
    coloring = greedy_coloring(power_graph(graph, params.mac_distance + 1))
    return graph, TDMASchedule(coloring)


class TestFloodingSRS:
    def test_lossless_and_equal_to_native(self, world, params):
        graph, schedule = world
        simulated = [FloodingBroadcast(source=0) for _ in range(graph.n)]
        report = simulate_uniform_algorithm(
            graph, simulated, schedule, params, max_rounds=100
        )
        assert report.exact
        assert report.halted
        native = [FloodingBroadcast(source=0) for _ in range(graph.n)]
        native_report = run_uniform_rounds(graph, native, max_rounds=100)
        assert report.rounds == native_report.rounds
        assert [a.output() for a in simulated] == [a.output() for a in native]

    def test_slot_cost_is_rounds_times_frame(self, world, params):
        graph, schedule = world
        algos = [FloodingBroadcast(source=0) for _ in range(graph.n)]
        report = simulate_uniform_algorithm(
            graph, algos, schedule, params, max_rounds=100
        )
        assert report.slots == report.rounds * schedule.frame_length


class TestBFSSRS:
    def test_depths_are_hop_distances(self, world, params):
        graph, schedule = world
        algos = [BFSTreeAlgorithm(root=0) for _ in range(graph.n)]
        report = simulate_uniform_algorithm(
            graph, algos, schedule, params, max_rounds=100
        )
        assert report.exact
        # verify against a direct BFS
        import collections

        dist = {0: 0}
        queue = collections.deque([0])
        while queue:
            u = queue.popleft()
            for v in graph.neighbors(u):
                v = int(v)
                if v not in dist:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        for node, output in enumerate(report.outputs):
            if node in dist and node != 0:
                parent, depth = output
                assert depth == dist[node]
                assert depth == dist[int(parent)] + 1


class TestLeaderElectionSRS:
    def test_agreement_on_component_max(self, world, params):
        graph, schedule = world
        rounds = 25  # comfortably above the diameter
        algos = [MaxIdLeaderElection(rounds=rounds) for _ in range(graph.n)]
        report = simulate_uniform_algorithm(
            graph, algos, schedule, params, max_rounds=rounds + 1
        )
        assert report.exact
        for component in graph.connected_components():
            expected = int(component.max())
            for node in component:
                assert report.outputs[int(node)] == expected


class TestValidation:
    def test_algorithm_count_mismatch(self, world, params):
        graph, schedule = world
        with pytest.raises(ScheduleError):
            simulate_uniform_algorithm(
                graph, [FloodingBroadcast(source=0)], schedule, params, 10
            )

    def test_zero_rounds(self, world, params):
        graph, schedule = world
        algos = [FloodingBroadcast(source=0) for _ in range(graph.n)]
        report = simulate_uniform_algorithm(graph, algos, schedule, params, 0)
        assert report.rounds == 0
        assert not report.halted
