"""Unit tests for TDMA schedules."""

import numpy as np
import pytest

from repro.errors import ScheduleError
from repro.graphs.coloring import Coloring
from repro.graphs.udg import UnitDiskGraph
from repro.mac.tdma import FrameTally, TDMASchedule, play_frame
from repro.sinr.channel import GraphChannel


@pytest.fixture()
def schedule():
    return TDMASchedule(Coloring(np.array([0, 5, 0, 2])))


class TestTDMASchedule:
    def test_frame_length_is_color_count(self, schedule):
        assert schedule.frame_length == 3

    def test_slots_follow_color_order(self, schedule):
        assert schedule.slot_of(0) == 0  # color 0
        assert schedule.slot_of(3) == 1  # color 2
        assert schedule.slot_of(1) == 2  # color 5

    def test_color_of_slot(self, schedule):
        assert schedule.color_of_slot(0) == 0
        assert schedule.color_of_slot(1) == 2
        assert schedule.color_of_slot(2) == 5

    def test_nodes_in_slot(self, schedule):
        np.testing.assert_array_equal(schedule.nodes_in_slot(0), [0, 2])
        np.testing.assert_array_equal(schedule.nodes_in_slot(2), [1])

    def test_every_node_scheduled_once_per_frame(self, schedule):
        seen = []
        for slot in range(schedule.frame_length):
            seen.extend(int(v) for v in schedule.nodes_in_slot(slot))
        assert sorted(seen) == [0, 1, 2, 3]

    def test_global_slot(self, schedule):
        assert schedule.global_slot(0, 1) == 1
        assert schedule.global_slot(2, 1) == 7

    def test_global_slot_validation(self, schedule):
        with pytest.raises(ScheduleError):
            schedule.global_slot(0, 99)
        with pytest.raises(ScheduleError):
            schedule.global_slot(-1, 0)

    def test_slot_out_of_range(self, schedule):
        with pytest.raises(ScheduleError):
            schedule.color_of_slot(3)

    def test_empty_coloring_rejected(self):
        with pytest.raises(ScheduleError):
            TDMASchedule(Coloring(np.array([], dtype=np.int64)))

    def test_n(self, schedule):
        assert schedule.n == 4


class _Clocked:
    """A channel stand-in that records the fault clock and forwards resolve."""

    def __init__(self, inner):
        self.inner = inner
        self.slots = []

    def begin_slot(self, slot):
        self.slots.append(slot)

    def resolve(self, senders, payloads):
        return self.inner.resolve(senders, payloads)


class TestPlayFrame:
    """A path 0-1-2-3-4 colored 0,1,0,1,0 under the graph model: in the
    color-0 slot nodes 1 and 3 hear two senders and decode nothing; in
    the color-1 slot node 2 does, while 0 and 4 decode their one sender."""

    @pytest.fixture()
    def path(self):
        positions = np.array([[float(x), 0.0] for x in range(5)])
        graph = UnitDiskGraph(positions, 1.0)
        schedule = TDMASchedule(Coloring(np.array([0, 1, 0, 1, 0])))
        return graph, schedule, GraphChannel(positions, 1.0)

    def test_scores_owed_pairs_against_what_decoded(self, path):
        graph, schedule, channel = path
        tally = play_frame(schedule, channel, lambda v: v, graph.neighbors)
        assert (tally.expected, tally.delivered, tally.lost) == (8, 2, 6)
        assert (tally.transmissions, tally.deliveries) == (5, 2)
        assert tally.failures == [(0, 1), (2, 1), (2, 3), (4, 3), (1, 2), (3, 2)]
        assert all(type(v) is int for pair in tally.failures for v in pair)

    def test_deliver_sees_every_decoded_transmission(self, path):
        graph, schedule, channel = path
        heard = []
        play_frame(
            schedule,
            channel,
            lambda v: f"m{v}",
            lambda v: (),
            lambda *delivery: heard.append(delivery),
        )
        assert heard == [(0, 1, "m1"), (4, 3, "m3")]

    def test_silent_members_send_nothing_and_owe_nothing(self, path):
        graph, schedule, channel = path
        clocked = _Clocked(channel)
        payload = {0: "a", 2: "b", 4: "c"}.get
        tally = play_frame(
            schedule, clocked, payload, graph.neighbors, first_slot=10
        )
        # The fault clock ticks on the silent color-1 slot too.
        assert clocked.slots == [10, 11]
        assert (tally.transmissions, tally.expected, tally.delivered) == (3, 4, 0)

    def test_tally_accumulates_and_samples_twenty_failures(self, path):
        graph, schedule, channel = path
        tally = FrameTally()
        for _ in range(4):
            returned = play_frame(
                schedule, channel, lambda v: v, graph.neighbors, tally=tally
            )
            assert returned is tally
        assert (tally.expected, tally.delivered) == (32, 8)
        once = [(0, 1), (2, 1), (2, 3), (4, 3), (1, 2), (3, 2)]
        assert tally.failures == (once * 4)[:20]
