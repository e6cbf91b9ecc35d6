"""Unit tests for the independence auditor."""

import numpy as np

from repro.graphs.udg import UnitDiskGraph
from repro.invariants import IndependenceAuditor, independence_violations


def make_auditor():
    positions = np.array([[0.0, 0.0], [0.5, 0.0], [3.0, 0.0]])
    return IndependenceAuditor(positions=positions, radius=1.0)


class TestAuditor:
    def test_clean_when_far_apart(self):
        auditor = make_auditor()
        auditor.on_decision(10, 0, 0)
        auditor.on_decision(20, 2, 0)
        assert auditor.clean
        assert auditor.decisions_audited == 2

    def test_detects_close_same_class(self):
        auditor = make_auditor()
        auditor.on_decision(10, 0, 0)
        auditor.on_decision(20, 1, 0)
        assert not auditor.clean
        violation = auditor.violations[0]
        assert violation.pair == (0, 1)
        assert violation.color_index == 0
        assert violation.slot == 20
        assert violation.distance == 0.5

    def test_different_classes_never_violate(self):
        auditor = make_auditor()
        auditor.on_decision(10, 0, 0)
        auditor.on_decision(20, 1, 5)
        assert auditor.clean

    def test_boundary_distance_is_violation(self):
        positions = np.array([[0.0, 0.0], [1.0, 0.0]])
        auditor = IndependenceAuditor(positions=positions, radius=1.0)
        auditor.on_decision(1, 0, 3)
        auditor.on_decision(2, 1, 3)
        assert not auditor.clean  # independence needs distance > radius

    def test_members_tracked_in_decision_order(self):
        auditor = make_auditor()
        auditor.on_decision(5, 2, 1)
        auditor.on_decision(6, 0, 1)
        assert auditor.members_of(1) == [2, 0]
        assert auditor.members_of(99) == []

    def test_multiple_violations_accumulate(self):
        positions = np.array([[0.0, 0.0], [0.3, 0.0], [0.6, 0.0]])
        auditor = IndependenceAuditor(positions=positions, radius=1.0)
        auditor.on_decision(1, 0, 0)
        auditor.on_decision(2, 1, 0)
        auditor.on_decision(3, 2, 0)
        assert len(auditor.violations) == 3  # (0,1), (0,2), (1,2)

    def test_keeps_the_unit_disk_graphs_rule(self):
        # hypot rounds to at most 1.0 here while the squared distance
        # exceeds 1.0: the graph has no edge, so the audit must not
        # report one.
        positions = np.array(
            [
                [1.1306803834256405, -0.6664714561253771],
                [1.791537290652291, 0.08404046794433839],
            ]
        )
        assert UnitDiskGraph(positions, 1.0).degrees.tolist() == [0, 0]
        auditor = IndependenceAuditor(positions=positions, radius=1.0)
        auditor.on_decision(1, 0, 1)
        auditor.on_decision(2, 1, 1)
        assert auditor.clean
        assert independence_violations(positions, 1.0, [1, 1]) == []

