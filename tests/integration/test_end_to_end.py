"""End-to-end integration tests: the paper's pipeline, claim by claim.

Each test exercises a full multi-subsystem flow — coloring under SINR, the
TDMA MAC built on a distance-d coloring, the message-passing simulation —
on deployments small enough to keep the suite fast but dense enough to be
non-trivial.
"""

import numpy as np
import pytest

from repro import (
    FloodingBroadcast,
    PhysicalParams,
    TDMASchedule,
    UnitDiskGraph,
    WakeupSchedule,
    clustered_deployment,
    greedy_coloring,
    power_graph,
    reduce_palette_simulated,
    run_mw_coloring,
    simulate_uniform_algorithm,
    uniform_deployment,
    verify_tdma_broadcast,
)
from repro.messaging.model import run_uniform_rounds
from repro.sinr.interference import InterferenceMeter


@pytest.fixture(scope="module")
def params():
    return PhysicalParams().with_r_t(1.0)


class TestTheorem1AndTheorem2:
    """Coloring correctness over deployment families and wake-up patterns."""

    def test_clustered_deployment(self, params):
        dep = clustered_deployment(
            clusters=6, points_per_cluster=9, extent=7.0, cluster_radius=0.6, seed=2
        )
        result = run_mw_coloring(dep, params, seed=5)
        assert result.stats.completed
        assert result.is_proper()
        assert not result.audit_violations
        assert result.max_color <= result.palette_bound

    def test_asynchronous_wakeup(self, params):
        dep = uniform_deployment(50, 5.0, seed=40)
        schedule = WakeupSchedule.uniform_random(50, max_delay=2000, seed=7)
        result = run_mw_coloring(
            dep, params, seed=8, schedule=schedule
        )
        assert result.stats.completed
        assert result.is_proper()
        assert not result.audit_violations

    def test_graph_channel_portability(self, params):
        # the same algorithm runs under the original MW model
        dep = uniform_deployment(50, 5.0, seed=41)
        result = run_mw_coloring(
            dep, params, seed=9, channel="graph"
        )
        assert result.stats.completed
        assert result.is_proper()
        assert not result.audit_violations


class TestLemma3:
    """Out-of-I_u interference stays below the analytic expectation bound."""

    def test_interference_bound_holds_during_run(self, params):
        dep = uniform_deployment(60, 5.0, seed=42)
        meter = InterferenceMeter(
            params=params,
            positions=dep.positions,
            receivers=np.arange(0, 60, 7),
        )

        class MeterObserver:
            def on_slot_end(self, slot, transmissions, deliveries):
                senders = np.asarray([t.sender for t in transmissions], dtype=np.intp)
                meter.observe(senders)

        result = run_mw_coloring(
            dep, params, seed=3, observers=[MeterObserver()]
        )
        assert result.stats.completed
        assert meter.slots_observed > 0
        # the paper's R_I exceeds this deployment's extent, so out-of-I_u
        # interference is exactly zero here — the bound holds trivially, and
        # measuring it confirms the geometry wiring.
        assert meter.mean_outside() <= meter.bound()


class TestSectionV:
    """MAC layer + palette reduction pipeline built on the MW coloring."""

    def test_full_pipeline_mw_to_tdma(self, params):
        # 1. distance-(d+1) coloring via the MW algorithm on boosted power
        from repro import run_distance_d_coloring

        dep = uniform_deployment(40, 8.0, seed=43)
        d = params.mac_distance
        wide = run_distance_d_coloring(dep, params, d=d + 1, seed=6)
        assert wide.stats.completed
        graph = UnitDiskGraph(dep.positions, params.r_t)
        assert wide.coloring.is_valid(dep.positions, params.r_t, d=d + 1)

        # 2. TDMA from that coloring is interference-free (Theorem 3)
        schedule = TDMASchedule(wide.coloring.compacted())
        report = verify_tdma_broadcast(graph, schedule, params)
        assert report.interference_free

        # 3. palette reduction over the same physical layer (end of Sec. V)
        reduction = reduce_palette_simulated(graph, wide.coloring, params)
        assert reduction.interference_free
        assert reduction.coloring.max_color <= graph.max_degree

    def test_corollary1_simulation_equivalence(self, params):
        dep = uniform_deployment(100, 6.0, seed=24)
        graph = UnitDiskGraph(dep.positions, params.r_t)
        assert graph.is_connected()
        coloring = greedy_coloring(power_graph(graph, params.mac_distance + 1))
        schedule = TDMASchedule(coloring)
        simulated = [FloodingBroadcast(source=5) for _ in range(graph.n)]
        report = simulate_uniform_algorithm(
            graph, simulated, schedule, params, max_rounds=80
        )
        native = [FloodingBroadcast(source=5) for _ in range(graph.n)]
        native_report = run_uniform_rounds(graph, native, max_rounds=80)
        assert report.exact
        assert report.halted
        assert [a.output() for a in simulated] == [a.output() for a in native]
        # Corollary 1 cost structure: tau frames of V slots
        assert report.slots == native_report.rounds * schedule.frame_length
