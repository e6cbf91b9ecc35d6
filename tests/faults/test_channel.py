"""FaultyChannel: each fault model's semantics, clocking, telemetry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FaultPlan,
    FaultyChannel,
    Jammer,
    MessageFaults,
    NodeOutage,
    SlotSkew,
)
from repro.sinr.channel import CollisionFreeChannel, SINRChannel, Transmission
from repro.sinr.params import PhysicalParams
from repro.telemetry import MetricsRegistry

LINE = np.array([[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.5, 0.0]])


def oracle(positions=LINE, radius=1.0) -> CollisionFreeChannel:
    return CollisionFreeChannel(positions, radius)


class TestEmptyPlanPassthrough:
    def test_identical_deliveries_and_zero_rng_draws(self):
        bare = oracle()
        wrapped = FaultyChannel(oracle(), FaultPlan(), seed=3)
        state_before = wrapped._rng.bit_generator.state
        for slot in range(8):
            batch = [Transmission(sender=slot % 2, payload=slot)]
            assert wrapped.resolve(batch) == bare.resolve(batch)
        assert wrapped._rng.bit_generator.state == state_before
        assert wrapped.events.injected == 0

    def test_plan_type_and_node_bounds_validated(self):
        with pytest.raises(ConfigurationError, match="FaultPlan"):
            FaultyChannel(oracle(), {"outages": []})
        plan = FaultPlan(outages=[NodeOutage(node=99)])
        with pytest.raises(ConfigurationError, match="node 99"):
            FaultyChannel(oracle(), plan)


class TestOutages:
    def test_down_sender_transmission_suppressed(self):
        plan = FaultPlan(outages=[NodeOutage(node=0)])
        channel = FaultyChannel(oracle(), plan)
        channel.begin_slot(0)
        assert channel.resolve([Transmission(sender=0, payload="x")]) == []
        assert channel.events.suppressed_transmissions == 1

    def test_down_sender_contributes_no_interference(self):
        params = PhysicalParams().with_r_t(1.0)
        positions = np.array([[0.0, 0.0], [0.6, 0.0], [0.3, 0.0]])
        batch = [Transmission(0, "a"), Transmission(1, "b")]
        reference = SINRChannel(positions, params).resolve([Transmission(0, "a")])
        plan = FaultPlan(outages=[NodeOutage(node=1)])
        channel = FaultyChannel(SINRChannel(positions, params), plan)
        channel.begin_slot(0)
        faulted = channel.resolve(batch)
        # node 2 hears node 0 as if node 1 never transmitted; node 1's
        # own radio is down, so its reception disappears too
        assert faulted == [d for d in reference if d.receiver != 1]
        assert any(d.receiver == 2 for d in faulted)
        # the scenario is meaningful: with node 1 up, node 2 hears nothing
        assert not any(
            d.receiver == 2
            for d in SINRChannel(positions, params).resolve(batch)
        )

    def test_down_receiver_hears_nothing(self):
        plan = FaultPlan(outages=[NodeOutage(node=1, start=0, stop=2)])
        channel = FaultyChannel(oracle(), plan)
        channel.begin_slot(0)
        lost = channel.resolve([Transmission(sender=0, payload="x")])
        assert all(d.receiver != 1 for d in lost)
        assert channel.events.down_receiver_losses == 1
        channel.begin_slot(2)  # restart: the radio is back
        back = channel.resolve([Transmission(sender=0, payload="x")])
        assert any(d.receiver == 1 for d in back)

    def test_node_down_predicate(self):
        plan = FaultPlan(outages=[NodeOutage(node=2, start=5, stop=6)])
        channel = FaultyChannel(oracle(), plan)
        assert channel.node_down(2, 5)
        assert not channel.node_down(2, 6)
        assert not channel.node_down(0, 5)


class TestSlotSkew:
    def test_skewed_sender_still_interferes(self):
        params = PhysicalParams().with_r_t(1.0)
        positions = np.array([[0.0, 0.0], [0.6, 0.0], [0.3, 0.0]])
        batch = [Transmission(0, "a"), Transmission(1, "b")]
        reference = SINRChannel(positions, params).resolve(batch)
        plan = FaultPlan(skews=[SlotSkew(node=1, period=1)])  # every slot
        channel = FaultyChannel(SINRChannel(positions, params), plan)
        channel.begin_slot(0)
        faulted = channel.resolve(batch)
        # Same interference picture, minus anything node 1 delivered —
        # unlike an outage, which would have handed node 2 a clean slot.
        assert faulted == [d for d in reference if d.sender != 1]
        assert channel.events.desynced_deliveries == sum(
            1 for d in reference if d.sender == 1
        )

    def test_skew_phase_only_bites_periodically(self):
        plan = FaultPlan(skews=[SlotSkew(node=0, period=3, phase=1)])
        channel = FaultyChannel(oracle(), plan)
        heard = []
        for slot in range(6):
            channel.begin_slot(slot)
            out = channel.resolve([Transmission(sender=0, payload=slot)])
            heard.append(bool(out))
        assert heard == [True, False, True, True, False, True]


class TestJammers:
    def test_jammer_kills_by_received_power(self):
        plan = FaultPlan(
            jammers=[Jammer(x=2.0, y=0.0, power=5.0)], jam_threshold=0.5
        )
        channel = FaultyChannel(oracle(), plan)
        channel.begin_slot(0)
        deliveries = channel.resolve([Transmission(sender=1, payload="x")])
        receivers = {d.receiver for d in deliveries}
        # node 0 (dist 2 from jammer, received 0.31) survives;
        # nodes 2 and 3 (dist 1 and 0.5 -> 5 and 80) are jammed.
        assert receivers == {0}
        assert channel.events.jammed == 2

    def test_pulsed_jammer_windows(self):
        plan = FaultPlan(
            jammers=[Jammer(x=1.5, y=0.0, power=50.0, period=2, duty=1)],
            jam_threshold=0.5,
        )
        channel = FaultyChannel(oracle(), plan)
        counts = []
        for slot in range(4):
            channel.begin_slot(slot)
            counts.append(
                len(channel.resolve([Transmission(sender=0, payload="x")]))
            )
        assert counts[0] < counts[1] and counts[2] < counts[3]

    def test_threshold_derived_from_inner_params(self):
        params = PhysicalParams().with_r_t(1.0)
        plan = FaultPlan(jammers=[Jammer(x=0.0, y=0.0, power=1.0)])
        channel = FaultyChannel(SINRChannel(LINE, params), plan)
        assert channel._jam_threshold == pytest.approx(
            float(params.beta) * float(params.noise)
        )

    def test_threshold_required_without_params(self):
        plan = FaultPlan(jammers=[Jammer(x=0.0, y=0.0, power=1.0)])
        with pytest.raises(ConfigurationError, match="jam_threshold"):
            FaultyChannel(oracle(), plan)


class TestMessageFaults:
    def test_corruption_counts_separately_from_drops(self):
        plan = FaultPlan(messages=MessageFaults(corrupt=1.0))
        channel = FaultyChannel(oracle(), plan, seed=0)
        channel.begin_slot(0)
        assert channel.resolve([Transmission(sender=0, payload="x")]) == []
        assert channel.events.corrupted > 0
        assert channel.events.dropped == 0

    def test_plan_seed_overrides_wrapper_seed(self):
        plan = FaultPlan(messages=MessageFaults(drop=0.5), seed=42)
        a = FaultyChannel(oracle(), plan, seed=1)
        b = FaultyChannel(oracle(), plan, seed=2)
        for slot in range(30):
            batch = [Transmission(sender=slot % 4, payload=slot)]
            assert a.resolve(batch) == b.resolve(batch)


class TestClocking:
    def test_standalone_wrapper_self_clocks(self):
        plan = FaultPlan(outages=[NodeOutage(node=0, start=2, stop=3)])
        channel = FaultyChannel(oracle(), plan)
        outcomes = [
            bool(channel.resolve([Transmission(sender=0, payload=s)]))
            for s in range(4)
        ]
        assert outcomes == [True, True, False, True]

    def test_external_clock_pins_the_slot(self):
        plan = FaultPlan(outages=[NodeOutage(node=0, start=2, stop=3)])
        channel = FaultyChannel(oracle(), plan)
        channel.begin_slot(2)
        # repeated resolves stay in slot 2 once externally clocked
        for _ in range(3):
            assert channel.resolve([Transmission(sender=0, payload="x")]) == []
        channel.begin_slot(3)
        assert channel.resolve([Transmission(sender=0, payload="x")])

    def test_begin_slot_forwards_to_stacked_wrapper(self):
        inner = FaultyChannel(
            oracle(), FaultPlan(outages=[NodeOutage(node=0, start=1)])
        )
        outer = FaultyChannel(inner, FaultPlan())
        outer.begin_slot(1)
        assert inner.slot == 1


class TestEventsAndTelemetry:
    def test_events_as_dict_and_injected(self):
        plan = FaultPlan(outages=[NodeOutage(node=0)])
        channel = FaultyChannel(oracle(), plan)
        channel.begin_slot(0)
        channel.resolve([Transmission(sender=0, payload="x")])
        record = channel.events.as_dict()
        assert record["suppressed_transmissions"] == 1
        assert channel.events.injected == 1
        assert set(record) == {
            "suppressed_transmissions", "desynced_deliveries",
            "down_receiver_losses", "jammed", "dropped", "corrupted", "passed",
        }

    def test_fault_counters_reach_the_metrics_registry(self):
        plan = FaultPlan(
            outages=[NodeOutage(node=0)],
            messages=MessageFaults(drop=1.0),
        )
        channel = FaultyChannel(oracle(), plan, seed=0)
        registry = MetricsRegistry()
        channel.attach_metrics(registry)
        channel.begin_slot(0)
        channel.resolve([Transmission(sender=0, payload="x")])
        channel.resolve([Transmission(sender=1, payload="y")])
        snapshot = registry.snapshot()
        assert snapshot["faults.suppressed_transmissions"]["value"] == 1
        assert snapshot["channel.dropped_deliveries"]["value"] > 0
        assert snapshot["channel.resolve_calls"]["value"] == 2
