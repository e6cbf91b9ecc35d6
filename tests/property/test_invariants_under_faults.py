"""Theorem 1 under fault injection, across ~60 seeded scenarios.

The paper's central invariant — no two same-colored nodes within
``R_T``, *at all times* (Theorem 1) — is audited live at every decision
event (class membership only grows, so that is equivalent to auditing
every slot).  These tests pin down three regimes:

* fault-free runs satisfy the invariant outright;
* under crash/sleep outages and moderate message loss, nodes that
  never lost their radio still satisfy it among themselves (a downed
  node can break *its own* decision, never the survivors');
* an **empty** fault plan is not a fault model at all: wrapped runs are
  bit-identical to bare ones.

Runs use small deployments (n = 18–22) to keep ~60 full protocol
executions within seconds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import PhysicalParams, uniform_deployment
from repro.algorithms.mw import mw_run_result
from repro.coloring.runner import run_mw_coloring
from repro.faults import (
    FaultPlan,
    MessageFaults,
    NodeOutage,
    WakeupSpec,
)
from repro.invariants import IndependenceAuditor, independence_violations

PARAMS = PhysicalParams().with_r_t(1.0)
N = 20
EXTENT = 3.0


def deployment(seed: int, n: int = N):
    return uniform_deployment(n, EXTENT, seed=seed)


def survivor_violations(result, down_nodes):
    """Independence violations among nodes whose radio never failed."""
    colors = np.array(result.coloring.colors, dtype=np.int64)
    masked = colors.copy()
    for node in down_nodes:
        masked[node] = -1
    masked[result.decision_slots < 0] = -1
    graph = result.graph
    return independence_violations(graph.positions, graph.radius, masked)


class TestFaultFreeTheorem1:
    @pytest.mark.parametrize("seed", range(10))
    def test_invariant_holds_at_every_decision(self, seed):
        nodes = deployment(seed)
        auditor = IndependenceAuditor(positions=nodes.positions, radius=PARAMS.r_t)
        result = run_mw_coloring(
            nodes, PARAMS, seed=seed, decision_listeners=[auditor.on_decision]
        )
        assert result.stats.completed
        assert result.is_proper()
        assert auditor.clean
        assert result.audit_violations == ()
        assert auditor.decisions_audited == result.graph.n
        outcome = mw_run_result(result)
        assert outcome.clean
        assert outcome.decided == outcome.n


class TestTheorem1UnderOutages:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize(
        "down_nodes,window",
        [
            ((0, 7), (0, None)),       # two crashes, never restart
            ((3, 11, 15), (50, 900)),  # three sleepers with a restart
        ],
        ids=["crash", "sleep"],
    )
    def test_survivors_keep_independence(self, seed, down_nodes, window):
        start, stop = window
        plan = FaultPlan(
            outages=[
                NodeOutage(node=node, start=start, stop=stop)
                for node in down_nodes
            ]
        )
        result = run_mw_coloring(
            deployment(seed), PARAMS, seed=seed, faults=plan
        )
        # Whatever a downed node did to itself, every violation the live
        # audit saw involves at least one node that lost its radio.
        for violation in result.audit_violations:
            assert set(violation.pair) & set(down_nodes), (
                f"fault-free nodes violated Theorem 1: {violation}"
            )
        assert survivor_violations(result, down_nodes) == []
        events = result.fault_events
        assert events is not None
        if start == 0:
            assert events["suppressed_transmissions"] > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_brief_sleep_still_completes_properly(self, seed):
        plan = FaultPlan(outages=[NodeOutage(node=5, start=10, stop=40)])
        result = run_mw_coloring(
            deployment(seed), PARAMS, seed=seed, faults=plan
        )
        assert result.stats.completed
        assert result.is_proper()
        assert survivor_violations(result, ()) == []


class TestTheorem1UnderMessageLoss:
    @pytest.mark.parametrize("seed", range(6))
    def test_moderate_loss_never_breaks_independence(self, seed):
        plan = FaultPlan(messages=MessageFaults(drop=0.2, corrupt=0.05))
        result = run_mw_coloring(
            deployment(seed), PARAMS, seed=seed, faults=plan
        )
        assert not result.audit_violations
        assert result.is_proper()
        events = result.fault_events
        assert events is not None and events["dropped"] > 0


class TestTheorem1UnderAdversarialWakeup:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "spec",
        [
            # max_delay is kept inside the practical preset's validated
            # envelope for n=18: the measured constants are tuned to the
            # deployment density, and a wake spread far beyond the
            # listening window can genuinely break Theorem 1 (observed at
            # max_delay=500, n=18, seed=1 — larger n absorbs it).
            WakeupSpec(pattern="random", max_delay=200),
            WakeupSpec(pattern="staggered", interval=25),
            WakeupSpec(pattern="bursts", interval=120, burst=6),
        ],
        ids=["random", "staggered", "bursts"],
    )
    def test_every_wakeup_pattern_preserves_invariants(self, seed, spec):
        plan = FaultPlan(wakeup=spec)
        result = run_mw_coloring(
            deployment(seed, n=18), PARAMS, seed=seed, faults=plan
        )
        assert result.stats.completed
        assert result.is_proper()
        assert not result.audit_violations


class TestEmptyPlanBitIdentity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("channel", ["sinr", "graph"])
    def test_wrapping_with_an_empty_plan_changes_nothing(self, seed, channel):
        bare = run_mw_coloring(
            deployment(seed), PARAMS, seed=seed, channel=channel
        )
        wrapped = run_mw_coloring(
            deployment(seed), PARAMS, seed=seed, channel=channel,
            faults=FaultPlan(),
        )
        assert np.array_equal(bare.coloring.colors, wrapped.coloring.colors)
        assert np.array_equal(bare.decision_slots, wrapped.decision_slots)
        assert bare.stats.transmissions == wrapped.stats.transmissions
        assert bare.stats.deliveries == wrapped.stats.deliveries
        assert wrapped.fault_events is not None
        assert all(
            count == 0
            for name, count in wrapped.fault_events.items()
            if name != "passed"
        )
