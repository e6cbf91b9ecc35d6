"""Unit tests for the event-driven simulator engine (the one engine)."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.simulation.event_sim import EventApi, EventNode, EventSimulator
from repro.simulation.scheduler import WakeupSchedule
from repro.sinr.channel import CollisionFreeChannel


class EventBeacon(EventNode):
    """Transmits its id at a fixed rate; records what it hears."""

    def __init__(self, node_id, rate=1.0):
        self.node_id = node_id
        self.rate = rate
        self.heard = []
        self.tx_slots = []

    def on_wake(self, api: EventApi):
        api.set_rate(self.rate)

    def make_payload(self, api: EventApi):
        self.tx_slots.append(api.slot)
        return self.node_id

    def on_receive(self, api: EventApi, sender, payload):
        self.heard.append((api.slot, sender, payload))


class TimerNode(EventNode):
    """Fires a timer at a fixed slot, then decides."""

    def __init__(self, fire_at):
        self.fire_at = fire_at
        self.fired_at = None

    def on_wake(self, api: EventApi):
        api.set_timer(self.fire_at)

    def make_payload(self, api: EventApi):  # pragma: no cover - rate stays 0
        return None

    def on_timer(self, api: EventApi):
        self.fired_at = api.slot

    @property
    def decided(self):
        return self.fired_at is not None


def line_positions(n, spacing=0.5):
    return np.column_stack([np.arange(n) * spacing, np.zeros(n)])


def make_sim(nodes, schedule=None, seed=0):
    n = len(nodes)
    channel = CollisionFreeChannel(line_positions(n), radius=1.0)
    if schedule is None:
        schedule = WakeupSchedule.synchronous(n)
    return EventSimulator(channel, nodes, schedule, seed=seed)


class TestRateOne:
    def test_rate_one_transmits_every_slot_after_wake(self):
        nodes = [EventBeacon(0, rate=1.0), EventBeacon(1, rate=0.0)]
        sim = make_sim(nodes)
        sim.run(max_slots=5, stop=lambda s: False)
        # wake at slot 0, first transmission at slot 1 (geometric >= 1)
        assert nodes[0].tx_slots == [1, 2, 3, 4]
        assert [h[0] for h in nodes[1].heard] == [1, 2, 3, 4]

    def test_zero_rate_never_transmits(self):
        nodes = [EventBeacon(0, rate=0.0), EventBeacon(1, rate=0.0)]
        sim = make_sim(nodes)
        stats = sim.run(max_slots=50, stop=lambda s: False)
        assert stats.transmissions == 0


class TestTimers:
    def test_timer_fires_exactly_once(self):
        node = TimerNode(fire_at=7)
        sim = make_sim([node])
        stats = sim.run(max_slots=100)
        assert node.fired_at == 7
        assert stats.completed
        assert stats.slots_run == 8

    def test_timer_replacement(self):
        class Rearm(TimerNode):
            def on_wake(self, api):
                api.set_timer(5)
                api.set_timer(9)  # replaces the first

        node = Rearm(fire_at=None)
        sim = make_sim([node])
        sim.run(max_slots=50)
        assert node.fired_at == 9

    def test_timer_cancellation(self):
        class Cancel(EventNode):
            def __init__(self):
                self.fired = False

            def on_wake(self, api):
                api.set_timer(5)
                api.cancel_timer()

            def make_payload(self, api):  # pragma: no cover
                return None

            def on_timer(self, api):
                self.fired = True

        node = Cancel()
        sim = make_sim([node])
        sim.run(max_slots=20, stop=lambda s: False)
        assert not node.fired

    def test_past_timer_rejected(self):
        class Bad(EventNode):
            def on_wake(self, api):
                api.set_timer(api.slot)  # allowed: same slot

            def make_payload(self, api):  # pragma: no cover
                return None

            def on_timer(self, api):
                api.set_timer(api.slot - 1)  # in the past

        with pytest.raises(SimulationError):
            make_sim([Bad()]).run(max_slots=10, stop=lambda s: False)


class TestSleep:
    def test_sleeping_node_hears_nothing(self):
        nodes = [EventBeacon(0, rate=1.0), EventBeacon(1, rate=0.0)]
        schedule = WakeupSchedule(np.array([0, 10]))
        sim = make_sim(nodes, schedule=schedule)
        sim.run(max_slots=20, stop=lambda s: False)
        assert all(slot >= 10 for slot, _, _ in nodes[1].heard)

    def test_sleeping_node_does_not_transmit(self):
        nodes = [EventBeacon(0, rate=0.0), EventBeacon(1, rate=1.0)]
        schedule = WakeupSchedule(np.array([0, 5]))
        sim = make_sim(nodes, schedule=schedule)
        sim.run(max_slots=9, stop=lambda s: False)
        assert nodes[1].tx_slots == [6, 7, 8]
        assert [slot for slot, _, _ in nodes[0].heard] == [6, 7, 8]

    def test_wake_callback_runs_in_the_wake_slot(self):
        class WakeRecorder(EventBeacon):
            def on_wake(self, api):
                self.woke_at = api.slot

        nodes = [WakeRecorder(0, rate=0.0), WakeRecorder(1, rate=0.0)]
        schedule = WakeupSchedule(np.array([0, 3]))
        make_sim(nodes, schedule=schedule).run(
            max_slots=5, stop=lambda s: False
        )
        assert [node.woke_at for node in nodes] == [0, 3]


class TestRun:
    def test_stops_when_all_decided(self):
        nodes = [TimerNode(fire_at=3), TimerNode(fire_at=5)]
        stats = make_sim(nodes).run(max_slots=100)
        assert stats.completed
        assert stats.slots_run == 6
        assert stats.decided_count == 2

    def test_budget_exhaustion(self):
        stats = make_sim([TimerNode(fire_at=1000)]).run(max_slots=10)
        assert not stats.completed
        assert stats.slots_run == 10
        assert stats.decided_count == 0

    def test_custom_stop(self):
        nodes = [EventBeacon(0), EventBeacon(1)]
        stats = make_sim(nodes).run(max_slots=100, stop=lambda s: s.slot >= 7)
        assert stats.completed
        assert stats.slots_run == 8

    def test_waits_for_last_wake(self):
        # the default stop refuses to declare completion before everyone
        # woke, even when every node already reports decided
        class Decided(EventNode):
            def on_wake(self, api):
                pass

            def make_payload(self, api):  # pragma: no cover - rate stays 0
                return None

            @property
            def decided(self):
                return True

        schedule = WakeupSchedule(np.array([0, 20]))
        stats = make_sim([Decided(), Decided()], schedule=schedule).run(
            max_slots=100
        )
        assert stats.completed
        assert stats.slots_run == 21

    def test_counts_transmissions_and_deliveries(self):
        nodes = [EventBeacon(0, rate=1.0), EventBeacon(1, rate=0.0)]
        stats = make_sim(nodes).run(max_slots=11, stop=lambda s: False)
        assert stats.transmissions == 10
        assert stats.deliveries == 10
        assert stats.delivery_rate == 1.0


class TestObservers:
    def test_observer_sees_each_active_slot(self):
        seen = []

        class Observer:
            def on_slot_end(self, slot, transmissions, deliveries):
                seen.append((slot, len(transmissions), len(deliveries)))

        nodes = [EventBeacon(0, rate=1.0), EventBeacon(1, rate=0.0)]
        channel = CollisionFreeChannel(line_positions(2), radius=1.0)
        sim = EventSimulator(
            channel, nodes, WakeupSchedule.synchronous(2), observers=[Observer()]
        )
        sim.run(max_slots=3, stop=lambda s: False)
        # slot 0 is active (both wake) but silent; slots 1-2 carry a beacon
        assert seen == [(0, 0, 0), (1, 1, 1), (2, 1, 1)]


class TestStatisticalEquivalence:
    """Sampled geometric gaps reproduce a per-slot Bernoulli coin."""

    class EventCoin(EventNode):
        def __init__(self, p):
            self.p = p
            self.tx = 0

        def on_wake(self, api):
            api.set_rate(self.p)

        def make_payload(self, api):
            self.tx += 1
            return "x"

    def test_transmission_rate_matches(self):
        slots, p = 4000, 0.07
        channel = CollisionFreeChannel(np.zeros((1, 2)), radius=1.0)
        event_node = self.EventCoin(p)
        EventSimulator(
            channel, [event_node], WakeupSchedule.synchronous(1), seed=6
        ).run(max_slots=slots, stop=lambda s: False)
        expected = slots * p
        sigma = (slots * p * (1 - p)) ** 0.5
        assert abs(event_node.tx - expected) < 5 * sigma


class TestValidation:
    def test_node_count_mismatch(self):
        channel = CollisionFreeChannel(np.zeros((2, 2)), radius=1.0)
        with pytest.raises(SimulationError):
            EventSimulator(
                channel, [EventBeacon(0)], WakeupSchedule.synchronous(2)
            )

    def test_schedule_mismatch(self):
        channel = CollisionFreeChannel(np.zeros((1, 2)), radius=1.0)
        with pytest.raises(SimulationError):
            EventSimulator(
                channel, [EventBeacon(0)], WakeupSchedule.synchronous(3)
            )

    def test_bad_rate_rejected(self):
        class BadRate(EventNode):
            def on_wake(self, api):
                api.set_rate(1.5)

            def make_payload(self, api):  # pragma: no cover
                return None

        with pytest.raises(SimulationError):
            make_sim([BadRate()]).run(max_slots=5, stop=lambda s: False)

    def test_max_slots_respected(self):
        nodes = [EventBeacon(0, rate=1.0)]
        sim = make_sim(nodes)
        stats = sim.run(max_slots=10, stop=lambda s: False)
        assert stats.slots_run == 10
        assert all(slot < 10 for slot in nodes[0].tx_slots)


class TestArraySlotPath:
    """The slot path runs on arrays; observers only add object building."""

    @staticmethod
    def run(observers=()):
        from repro.coloring.runner import run_mw_coloring
        from repro.geometry.deployment import uniform_deployment

        deployment = uniform_deployment(40, 3.0, seed=4)
        # late wakers make the engine drop deliveries to sleeping radios
        schedule = WakeupSchedule.uniform_random(40, max_delay=2000, seed=2)
        return run_mw_coloring(
            deployment, seed=5, schedule=schedule, observers=observers
        )

    def test_observer_does_not_change_the_run(self):
        seen = []

        class Observer:
            def on_slot_end(self, slot, transmissions, deliveries):
                seen.append(len(deliveries))

        plain = self.run()
        observed = self.run(observers=[Observer()])
        assert observed.stats == plain.stats
        assert np.array_equal(observed.coloring.colors, plain.coloring.colors)
        assert np.array_equal(observed.decision_slots, plain.decision_slots)
        assert sum(seen) == plain.stats.deliveries > 0

    def test_observer_free_run_builds_no_delivery_objects(self, monkeypatch):
        from repro.sinr.channel import Delivery, Transmission

        built = {"Delivery": 0, "Transmission": 0}
        for cls in (Delivery, Transmission):
            original = cls.__init__

            def counting(self, *args, _original=original, _name=cls.__name__, **kw):
                built[_name] += 1
                _original(self, *args, **kw)

            monkeypatch.setattr(cls, "__init__", counting)

        assert self.run().stats.deliveries > 0
        assert built == {"Delivery": 0, "Transmission": 0}

        class Observer:
            def on_slot_end(self, slot, transmissions, deliveries):
                pass

        self.run(observers=[Observer()])
        assert built["Delivery"] > 0 and built["Transmission"] > 0
