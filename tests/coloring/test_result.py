"""Unit tests for the MWColoringResult value type (constructed directly)."""

import numpy as np
import pytest

from repro.coloring.constants import AlgorithmConstants
from repro.coloring.result import MWColoringResult
from repro.graphs.coloring import Coloring
from repro.graphs.udg import UnitDiskGraph
from repro.simulation.event_sim import RunStats
from repro.simulation.trace import TraceRecorder


def make_result(colors, positions=None, completed=True, decision_slots=None):
    colors = np.asarray(colors, dtype=np.int64)
    n = len(colors)
    if positions is None:
        positions = np.column_stack([np.arange(n) * 2.0, np.zeros(n)])
    graph = UnitDiskGraph(np.asarray(positions, dtype=float), radius=1.0)
    if decision_slots is None:
        decision_slots = np.arange(n, dtype=np.int64)
    stats = RunStats(
        slots_run=int(max(decision_slots, default=0)) + 1,
        completed=completed,
        decided_count=n,
        transmissions=10,
        deliveries=5,
    )
    constants = AlgorithmConstants.practical(delta=max(1, n - 1), n=max(2, n))
    return MWColoringResult(
        graph=graph,
        coloring=Coloring(colors),
        leaders=np.flatnonzero(colors == 0),
        decision_slots=np.asarray(decision_slots, dtype=np.int64),
        stats=stats,
        constants=constants,
        trace=TraceRecorder(enabled=False),
    )


class TestAccessors:
    def test_counts(self):
        result = make_result([0, 3, 0, 7])
        assert result.n == 4
        assert result.num_colors == 3
        assert result.max_color == 7
        assert list(result.leaders) == [0, 2]

    def test_slots_to_complete_is_last_decision(self):
        result = make_result([0, 1], decision_slots=[3, 9])
        assert result.slots_to_complete == 10

    def test_incomplete_run_reports_budget(self):
        result = make_result([0, 1], completed=False)
        assert result.slots_to_complete == result.stats.slots_run

    def test_palette_bound_formula(self):
        result = make_result([0, 1, 2])
        constants = result.constants
        spacing = constants.state_spacing
        assert result.palette_bound == spacing * constants.delta + spacing


class TestValidityViews:
    def test_spread_nodes_proper(self):
        result = make_result([0, 0, 0])  # all 2 apart: same color fine
        assert result.is_proper()
        assert result.conflicts() == []

    def test_adjacent_same_color_detected(self):
        positions = [[0.0, 0.0], [0.5, 0.0]]
        result = make_result([4, 4], positions=positions)
        assert not result.is_proper()
        assert result.conflicts() == [(0, 1)]

    def test_leaders_independent_check(self):
        positions = [[0.0, 0.0], [0.5, 0.0]]
        result = make_result([0, 0], positions=positions)
        assert not result.leaders_independent()

    def test_summary_keys(self):
        result = make_result([0, 1])
        row = result.summary()
        assert set(row) >= {
            "n", "delta", "completed", "slots", "colors",
            "max_color", "palette_bound", "leaders", "proper",
        }


class TestDeliveryRate:
    def test_run_stats_delivery_rate(self):
        stats = RunStats(
            slots_run=10, completed=True, decided_count=1,
            transmissions=4, deliveries=6,
        )
        assert stats.delivery_rate == pytest.approx(1.5)

    def test_zero_transmissions(self):
        stats = RunStats(
            slots_run=0, completed=True, decided_count=0,
            transmissions=0, deliveries=0,
        )
        assert stats.delivery_rate == 0.0
