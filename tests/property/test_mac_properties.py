"""Property-based tests for the MAC layer and channel wrappers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultPlan, FaultyChannel, MessageFaults
from repro.graphs.coloring import Coloring
from repro.mac.tdma import TDMASchedule
from repro.sinr.channel import CollisionFreeChannel, SINRChannel, Transmission
from repro.sinr.params import PhysicalParams

PARAMS = PhysicalParams().with_r_t(1.0)

colors_strategy = st.lists(st.integers(0, 12), min_size=1, max_size=40)
coordinate = st.floats(
    min_value=0.0, max_value=10.0, allow_nan=False, allow_infinity=False
)
positions_strategy = st.lists(
    st.tuples(coordinate, coordinate), min_size=2, max_size=20
).map(lambda pts: np.asarray(pts, dtype=np.float64))


class TestTDMAProperties:
    @given(colors_strategy)
    def test_every_node_scheduled_exactly_once_per_frame(self, colors):
        schedule = TDMASchedule(Coloring(np.asarray(colors, dtype=np.int64)))
        scheduled = []
        for slot in range(schedule.frame_length):
            scheduled.extend(int(v) for v in schedule.nodes_in_slot(slot))
        assert sorted(scheduled) == list(range(len(colors)))

    @given(colors_strategy)
    def test_frame_length_equals_palette(self, colors):
        coloring = Coloring(np.asarray(colors, dtype=np.int64))
        schedule = TDMASchedule(coloring)
        assert schedule.frame_length == coloring.num_colors

    @given(colors_strategy)
    def test_slot_of_consistent_with_nodes_in_slot(self, colors):
        schedule = TDMASchedule(Coloring(np.asarray(colors, dtype=np.int64)))
        for node in range(len(colors)):
            slot = schedule.slot_of(node)
            assert node in set(int(v) for v in schedule.nodes_in_slot(slot))

    @given(colors_strategy)
    def test_same_color_same_slot(self, colors):
        schedule = TDMASchedule(Coloring(np.asarray(colors, dtype=np.int64)))
        for u in range(len(colors)):
            for v in range(len(colors)):
                if colors[u] == colors[v]:
                    assert schedule.slot_of(u) == schedule.slot_of(v)


def dropping(inner, drop: float, seed: int) -> FaultyChannel:
    """``inner`` behind a drop-only fault plan (i.i.d. message loss)."""
    return FaultyChannel(
        inner, FaultPlan(messages=MessageFaults(drop=drop)), seed=seed
    )


class TestLossyProperties:
    @given(
        positions_strategy,
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(0, 100),
    )
    @settings(max_examples=40)
    def test_lossy_subset_of_inner(self, positions, drop, seed):
        inner = CollisionFreeChannel(positions, radius=1.0)
        lossy = dropping(
            CollisionFreeChannel(positions, radius=1.0), drop=drop, seed=seed
        )
        txs = [Transmission(0, "x")]
        inner_set = {(d.receiver, d.sender) for d in inner.resolve(txs)}
        lossy_set = {(d.receiver, d.sender) for d in lossy.resolve(txs)}
        assert lossy_set <= inner_set

    @given(positions_strategy, st.integers(0, 100))
    @settings(max_examples=30)
    def test_accounting_balances(self, positions, seed):
        lossy = dropping(SINRChannel(positions, PARAMS), drop=0.5, seed=seed)
        total = 0
        for sender in range(min(4, len(positions))):
            total += len(lossy.resolve([Transmission(sender, "x")]))
        assert lossy.events.passed == total
        assert lossy.events.passed + lossy.events.dropped >= total
