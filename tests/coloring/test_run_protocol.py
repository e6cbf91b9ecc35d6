"""Unit tests for :func:`repro.coloring.runner.run_protocol`, the one harness.

A toy census protocol stands in for a coloring algorithm: each node
beacons for a fixed window after it wakes, then decides with color equal
to the number of distinct neighbors it heard.  That makes every wiring
step observable — the channel (who heard whom), the fault wrap (drops
silence neighbors), the wake-up schedule (decision slots shift with wake
slots), the listeners and the telemetry — without the cost of an MW run.
"""

import numpy as np
import pytest

from repro.coloring.runner import ProtocolRun, run_protocol
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, MessageFaults, WakeupSpec
from repro.graphs.udg import UnitDiskGraph
from repro.invariants import independence_violations
from repro.simulation.event_sim import EventApi, EventNode
from repro.simulation.scheduler import WakeupSchedule
from repro.sinr.params import PhysicalParams
from repro.telemetry import Telemetry

PARAMS = PhysicalParams().with_r_t(1.0)
WINDOW = 6


class Census(EventNode):
    """Beacons for ``window`` slots after waking, then decides: its color
    is the number of distinct neighbors heard.  ``window=None`` never
    decides."""

    def __init__(self, node_id, listeners, window=WINDOW, rate=0.5):
        self.node_id = node_id
        self.listeners = listeners
        self.window = window
        self.rate = rate
        self.heard = set()
        self.color = None
        self.decision_slot = None

    def on_wake(self, api: EventApi):
        api.set_rate(self.rate)
        if self.window is not None:
            api.set_timer(api.slot + self.window)

    def make_payload(self, api: EventApi):
        return self.node_id

    def on_receive(self, api: EventApi, sender, payload):
        self.heard.add(sender)

    def on_timer(self, api: EventApi):
        self.color = len(self.heard)
        self.decision_slot = api.slot
        api.set_rate(0.0)
        for listener in self.listeners:
            listener(api.slot, self.node_id, self.color)

    @property
    def decided(self):
        return self.color is not None


def line_graph(n=6, spacing=0.5):
    positions = np.column_stack([np.arange(n) * spacing, np.zeros(n)])
    return UnitDiskGraph(positions, PARAMS.r_t)


def census(graph=None, windows=None, max_slots=200, **kwargs):
    """Run the census protocol; return the outcome, its nodes and listeners."""
    graph = graph if graph is not None else line_graph()
    built = {}

    def build(listeners):
        built["listeners"] = listeners
        built["nodes"] = [
            Census(i, listeners, window=(windows or {}).get(i, WINDOW))
            for i in range(graph.n)
        ]
        return built["nodes"]

    kwargs.setdefault("channel", "collision_free")
    outcome = run_protocol("census", graph, PARAMS, build, max_slots, **kwargs)
    return outcome, built["nodes"], built["listeners"]


def fingerprint(outcome: ProtocolRun):
    return (
        outcome.colors.tolist(),
        outcome.decision_slots.tolist(),
        outcome.stats,
    )


class TestOutcome:
    def test_colors_and_decision_slots_come_from_the_machines(self):
        outcome, nodes, _ = census(seed=3)
        assert outcome.stats.completed
        assert outcome.stats.decided_count == len(nodes)
        assert outcome.colors.tolist() == [node.color for node in nodes]
        assert outcome.decision_slots.tolist() == [WINDOW] * len(nodes)
        assert outcome.colors.dtype == np.int64
        assert outcome.decision_slots.dtype == np.int64

    def test_colors_reflect_the_channel(self):
        # collision-free delivery at rate 0.5 over six slots: nobody can
        # hear more neighbors than the unit-disk graph gives it
        graph = line_graph()
        outcome, _, _ = census(graph, seed=3)
        degrees = [len(graph.neighbors(i)) for i in range(graph.n)]
        assert all(0 <= c <= d for c, d in zip(outcome.colors, degrees))
        assert outcome.colors.sum() > 0

    def test_undecided_nodes_read_minus_one(self):
        outcome, _, _ = census(windows={0: None}, max_slots=20, seed=1)
        assert not outcome.stats.completed
        assert outcome.stats.slots_run == 20
        assert outcome.stats.decided_count == 5
        assert outcome.colors[0] == -1
        assert outcome.decision_slots[0] == -1
        assert (outcome.decision_slots[1:] == WINDOW).all()

    def test_machines_without_outputs_read_minus_one(self):
        class Silent(EventNode):
            def on_wake(self, api):
                pass

            def make_payload(self, api):  # pragma: no cover - rate stays 0
                return None

            @property
            def decided(self):
                return True

        graph = line_graph(3)
        outcome = run_protocol(
            "silent", graph, PARAMS, lambda listeners: [Silent()] * 3, 10,
        )
        assert outcome.stats.completed
        assert outcome.colors.tolist() == [-1, -1, -1]
        assert outcome.decision_slots.tolist() == [-1, -1, -1]

    @pytest.mark.parametrize("max_slots", [0, -5, 2.5])
    def test_max_slots_must_be_a_positive_int(self, max_slots):
        with pytest.raises(ConfigurationError):
            census(max_slots=max_slots)

    def test_same_seed_same_run(self):
        assert fingerprint(census(seed=7)[0]) == fingerprint(census(seed=7)[0])

    def test_seed_drives_the_node_coins(self):
        runs = {census(seed=seed)[0].stats.transmissions for seed in range(6)}
        assert len(runs) > 1


class TestWiring:
    def test_unknown_channel_rejected(self):
        with pytest.raises(ConfigurationError):
            census(channel="smoke-signals")

    def test_sparse_resolver_only_for_sinr(self):
        with pytest.raises(ConfigurationError):
            census(channel="graph", resolver="sparse")

    def test_sinr_channel_runs(self):
        outcome, _, _ = census(channel="sinr", seed=2)
        assert outcome.stats.completed
        assert outcome.stats.deliveries > 0

    def test_caller_listeners_hear_every_decision(self):
        heard = []
        outcome, _, listeners = census(
            seed=4, decision_listeners=(lambda *event: heard.append(event),)
        )
        assert len(listeners) == 2  # the caller's, then the run's audit
        assert sorted(heard) == sorted(
            (WINDOW, node, int(color))
            for node, color in enumerate(outcome.colors)
        )

    def test_every_run_is_audited(self):
        graph = line_graph()
        outcome = census(graph, seed=4)[0]
        static = independence_violations(graph.positions, graph.radius, outcome.colors)
        assert static  # the census colors clash, so the audit has work
        assert sorted(v.pair for v in outcome.audit_violations) == sorted(
            v.pair for v in static
        )

    def test_observers_see_the_run(self):
        slots = []

        class Observer:
            def on_slot_end(self, slot, transmissions, deliveries):
                slots.append(slot)

        outcome, _, _ = census(seed=4, observers=[Observer()])
        assert slots[0] == 0
        assert slots[-1] == outcome.stats.slots_run - 1


class TestFaults:
    def test_clean_run_reports_no_fault_events(self):
        assert census(seed=5)[0].fault_events is None

    def test_empty_plan_is_bit_neutral(self):
        clean = census(seed=5)[0]
        wrapped = census(seed=5, faults=FaultPlan())[0]
        assert fingerprint(wrapped) == fingerprint(clean)
        assert wrapped.fault_events is not None
        assert wrapped.fault_events["dropped"] == 0

    def test_drop_plan_silences_every_neighbor(self):
        plan = FaultPlan(messages=MessageFaults(drop=1.0))
        outcome = census(seed=5, faults=plan)[0]
        assert outcome.stats.completed
        assert outcome.colors.tolist() == [0] * 6
        assert outcome.stats.deliveries == 0
        assert outcome.fault_events["dropped"] > 0

    def test_plan_wakeup_supplies_the_schedule(self):
        plan = FaultPlan(wakeup=WakeupSpec("staggered", interval=3))
        outcome = census(seed=5, faults=plan)[0]
        assert outcome.decision_slots.tolist() == [
            3 * i + WINDOW for i in range(6)
        ]

    def test_explicit_schedule_beats_plan_wakeup(self):
        plan = FaultPlan(wakeup=WakeupSpec("staggered", interval=3))
        schedule = WakeupSchedule(np.array([0, 1, 2, 0, 1, 2]))
        outcome = census(seed=5, faults=plan, schedule=schedule)[0]
        assert outcome.decision_slots.tolist() == [
            w + WINDOW for w in (0, 1, 2, 0, 1, 2)
        ]


class TestTelemetry:
    def test_meta_names_the_algorithm(self):
        bundle = Telemetry(profile=False, trace=False)
        census(seed=6, telemetry=bundle)
        assert bundle.meta["algorithm"] == "census"

    def test_caller_label_is_kept(self):
        bundle = Telemetry(profile=False, trace=False, meta={"algorithm": "mine"})
        census(seed=6, telemetry=bundle)
        assert bundle.meta["algorithm"] == "mine"

    def test_decision_metrics_listen_after_the_caller(self):
        mine = []

        def record(*event):
            mine.append(event)

        bundle = Telemetry(profile=False, trace=False)
        outcome, _, listeners = census(
            seed=6, telemetry=bundle, decision_listeners=(record,)
        )
        assert len(listeners) == 3  # the caller's, the audit, the metrics
        assert listeners[0] is record
        assert len(mine) == 6
        snapshot = bundle.metrics.snapshot()
        assert snapshot["coloring.decisions"]["value"] == 6
        assert snapshot["coloring.max_color"]["value"] == outcome.colors.max()
        assert snapshot["coloring.decision_slot"]["count"] == 6

    def test_disabled_metrics_add_no_listener(self):
        bundle = Telemetry(metrics=False, profile=False, trace=False)
        _, _, listeners = census(seed=6, telemetry=bundle)
        assert len(listeners) == 1  # the run's own audit alone

    def test_telemetry_never_alters_the_run(self):
        bare = census(seed=6, channel="sinr")[0]
        observed = census(seed=6, channel="sinr", telemetry=Telemetry())[0]
        assert fingerprint(observed) == fingerprint(bare)
