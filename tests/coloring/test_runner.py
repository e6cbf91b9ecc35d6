"""Integration tests for the MW coloring run harness.

These are the headline tests of the reproduction: the coloring is proper,
the leader set is independent, the palette is bounded, and the run is
deterministic per seed.  They reuse the session-scoped run from conftest.
"""

import numpy as np
import pytest

from repro import (
    PhysicalParams,
    WakeupSchedule,
    run_mw_coloring,
    uniform_deployment,
)
from repro.coloring.constants import AlgorithmConstants
from repro.coloring.runner import build_constants, default_max_slots, make_channel
from repro.errors import ConfigurationError
from repro.graphs.independent import is_independent_set
from repro.graphs.udg import UnitDiskGraph
from repro.sinr.channel import GraphChannel, SINRChannel


class TestHeadlineInvariants:
    def test_run_completes(self, mw_run):
        result, _ = mw_run
        assert result.stats.completed

    def test_coloring_proper(self, mw_run):
        result, _ = mw_run
        assert result.is_proper()
        assert result.conflicts() == []

    def test_leaders_independent(self, mw_run):
        result, _ = mw_run
        assert len(result.leaders) > 0
        assert result.leaders_independent()

    def test_live_audit_clean(self, mw_run):
        result, auditor = mw_run
        assert result.audit_violations == ()
        assert auditor.clean
        assert auditor.decisions_audited == result.n

    def test_palette_within_theorem2_bound(self, mw_run):
        result, _ = mw_run
        assert result.max_color <= result.palette_bound

    def test_every_node_decided(self, mw_run):
        result, _ = mw_run
        assert (result.decision_slots >= 0).all()
        assert result.stats.decided_count == result.n

    def test_leaders_cover_graph(self, mw_run):
        # leaders form a maximal-like dominating structure: every node is
        # within 2 hops of a leader's disc (each non-leader clustered under
        # a leader it could hear, i.e. within R_T of one)
        result, _ = mw_run
        positions = result.graph.positions
        leaders = result.leaders
        for node in range(result.n):
            dists = np.hypot(*(positions[leaders] - positions[node]).T)
            assert dists.min() <= result.graph.radius + 1e-9

    def test_summary_row(self, mw_run):
        result, _ = mw_run
        row = result.summary()
        assert row["proper"] is True
        assert row["n"] == result.n
        assert row["slots"] == result.slots_to_complete

    def test_decision_slots_consistent_with_trace(self, mw_run):
        result, _ = mw_run
        for event in result.trace.of_kind("enter_C"):
            assert result.decision_slots[event.node] == event.slot


class TestDeterminism:
    def test_same_seed_same_coloring(self, small_deployment, params):
        a = run_mw_coloring(small_deployment, params, seed=123, max_slots=30_000)
        b = run_mw_coloring(small_deployment, params, seed=123, max_slots=30_000)
        np.testing.assert_array_equal(a.coloring.colors, b.coloring.colors)
        assert a.slots_to_complete == b.slots_to_complete

    def test_different_seed_different_run(self, small_deployment, params):
        a = run_mw_coloring(small_deployment, params, seed=1, max_slots=30_000)
        b = run_mw_coloring(small_deployment, params, seed=2, max_slots=30_000)
        assert not np.array_equal(a.coloring.colors, b.coloring.colors)


class TestConfiguration:
    def test_empty_deployment_rejected(self, params):
        with pytest.raises(ConfigurationError):
            run_mw_coloring(np.zeros((0, 2)), params)

    def test_constants_n_mismatch_rejected(self, small_deployment, params):
        constants = AlgorithmConstants.practical(delta=5, n=999)
        with pytest.raises(ConfigurationError):
            run_mw_coloring(small_deployment, params, constants=constants)

    def test_budget_exhaustion_reported(self, small_deployment, params):
        result = run_mw_coloring(small_deployment, params, seed=0, max_slots=50)
        assert not result.stats.completed
        # undecided nodes share the sentinel color -> improper result
        assert result.stats.decided_count < result.n

    def test_graph_channel_accepted(self, params):
        dep = uniform_deployment(40, 5.0, seed=3)
        result = run_mw_coloring(dep, params, seed=1, channel="graph")
        assert result.stats.completed
        assert result.is_proper()

    def test_unknown_channel_rejected(self, small_deployment, params):
        with pytest.raises(ConfigurationError):
            run_mw_coloring(small_deployment, params, channel="smoke-signals")

    def test_decision_listener_called(self, params):
        dep = uniform_deployment(25, 4.0, seed=6)
        decisions = []
        result = run_mw_coloring(
            dep,
            params,
            seed=1,
            decision_listeners=[lambda slot, node, color: decisions.append(node)],
        )
        assert sorted(decisions) == list(range(result.n))

    def test_unknown_resolver_rejected(self):
        dep = uniform_deployment(8, 2.0, seed=1)
        with pytest.raises(ConfigurationError):
            run_mw_coloring(dep, seed=0, resolver="banded")

    def test_sparse_with_non_sinr_channel_rejected(self):
        dep = uniform_deployment(8, 2.0, seed=1)
        with pytest.raises(ConfigurationError, match="only applies to the SINR"):
            run_mw_coloring(dep, seed=0, channel="graph", resolver="sparse")

    def test_listeners_and_trace_do_not_perturb_the_run(self):
        dep = uniform_deployment(12, 2.4, seed=17)
        bare = run_mw_coloring(dep, seed=3, trace=True)
        decisions = []
        tapped = run_mw_coloring(
            dep,
            seed=3,
            trace=True,
            decision_listeners=[
                lambda slot, node, color: decisions.append((slot, node, color))
            ],
        )
        assert decisions
        assert np.array_equal(bare.coloring.colors, tapped.coloring.colors)
        assert bare.stats == tapped.stats
        assert bare.trace.events == tapped.trace.events


class TestSchedule:
    def test_staggered_wakeup_staggers_the_run(self):
        dep = uniform_deployment(12, 2.4, seed=17)
        result = run_mw_coloring(
            dep,
            seed=7,
            schedule=WakeupSchedule.staggered(dep.n, 31),
            trace=True,
        )
        wakes = result.trace.of_kind("enter_A")
        assert wakes and wakes[0].slot != wakes[-1].slot


class TestHelpers:
    def test_default_max_slots_positive_and_generous(self):
        constants = AlgorithmConstants.practical(delta=10, n=100)
        budget = default_max_slots(constants)
        assert budget > constants.listen_slots + constants.counter_threshold

    def test_build_constants_practical_measures_phi(self, params):
        dep = uniform_deployment(80, 6.0, seed=1)
        graph = UnitDiskGraph(dep.positions, params.r_t)
        constants = build_constants("practical", graph, params, graph.n)
        assert constants.delta == graph.max_degree
        assert constants.phi_2rt >= 2

    def test_build_constants_theoretical(self, params):
        dep = uniform_deployment(20, 5.0, seed=1)
        graph = UnitDiskGraph(dep.positions, params.r_t)
        constants = build_constants("theoretical", graph, params, graph.n)
        constants.check_inequalities(strict_eta=True)

    def test_make_channel_kinds(self, params):
        positions = np.zeros((3, 2))
        assert isinstance(make_channel("sinr", positions, params), SINRChannel)
        assert isinstance(make_channel("graph", positions, params), GraphChannel)


class TestSingleNode:
    def test_lonely_node_becomes_leader(self, params):
        result = run_mw_coloring(np.array([[0.0, 0.0]]), params, seed=0)
        assert result.stats.completed
        assert result.coloring.colors[0] == 0
        assert list(result.leaders) == [0]

    def test_two_distant_nodes_both_leaders(self, params):
        positions = np.array([[0.0, 0.0], [10.0, 0.0]])
        result = run_mw_coloring(positions, params, seed=0)
        assert result.stats.completed
        assert len(result.leaders) == 2

    def test_two_close_nodes_one_leader(self, params):
        positions = np.array([[0.0, 0.0], [0.5, 0.0]])
        result = run_mw_coloring(positions, params, seed=0)
        assert result.stats.completed
        assert result.is_proper()
        assert len(result.leaders) == 1
        assert is_independent_set(positions, result.leaders.tolist(), params.r_t)
