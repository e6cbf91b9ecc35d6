"""Determinism regression: same seed, same schedule, same channel —
bit-identical runs.

Every experiment in the reproduction leans on this: the engine rewrite
(vectorised resolution, array-native slots) must not introduce any
run-to-run divergence.  Two independent executions with identical
configuration must produce the same :class:`RunStats` *and* the same
slot-by-slot transmission and delivery sequences, in the same order.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.event_sim import EventApi, EventNode, EventSimulator
from repro.simulation.scheduler import WakeupSchedule
from repro.sinr.channel import (
    CollisionFreeChannel,
    GraphChannel,
    ProtocolChannel,
    SINRChannel,
)
from repro.sinr.params import PhysicalParams

PARAMS = PhysicalParams().with_r_t(1.0)


class RandomBeacon(EventNode):
    """Transmits its id at rate 0.3 per slot; decides once it has heard
    three distinct neighbors, or gives up 40 slots after waking."""

    def __init__(self, node_id: int) -> None:
        self.node_id = node_id
        self.heard: set[int] = set()
        self.sent = 0
        self.gave_up = False

    def on_wake(self, api: EventApi) -> None:
        api.set_rate(0.3)
        api.set_timer(api.slot + 40)

    def make_payload(self, api: EventApi):
        self.sent += 1
        return ("beacon", self.node_id, self.sent)

    def on_timer(self, api: EventApi) -> None:
        self.gave_up = True
        api.set_rate(0.0)

    def on_receive(self, api: EventApi, sender: int, payload) -> None:
        self.heard.add(sender)

    @property
    def decided(self) -> bool:
        return len(self.heard) >= 3 or self.gave_up


class SequenceRecorder:
    """Observer capturing the full slot-by-slot event sequence."""

    def __init__(self) -> None:
        self.sequence = []

    def on_slot_end(self, slot, transmissions, deliveries) -> None:
        self.sequence.append((slot, tuple(transmissions), tuple(deliveries)))


def deployment():
    return np.random.default_rng(99).uniform(0, 4, size=(30, 2))


def run_once(channel_factory, seed: int, channel=None):
    if channel is None:
        channel = channel_factory(deployment())
    nodes = [RandomBeacon(i) for i in range(30)]
    schedule = WakeupSchedule.uniform_random(30, max_delay=5, seed=7)
    recorder = SequenceRecorder()
    simulator = EventSimulator(
        channel, nodes, schedule, seed=seed, observers=[recorder]
    )
    stats = simulator.run(max_slots=60)
    return stats, recorder.sequence


def sinr_factory(positions):
    return SINRChannel(positions, PARAMS)


def graph_factory(positions):
    return GraphChannel(positions, PARAMS.r_t)


def protocol_factory(positions):
    return ProtocolChannel(positions, PARAMS.r_t, guard=0.5)


def collision_free_factory(positions):
    return CollisionFreeChannel(positions, PARAMS.r_t)


class TestRunDeterminism:
    def test_sinr_runs_bit_identical(self):
        first_stats, first_seq = run_once(sinr_factory, seed=5)
        second_stats, second_seq = run_once(sinr_factory, seed=5)
        assert first_stats == second_stats
        assert first_seq == second_seq

    def test_all_channel_types_bit_identical(self):
        for factory in (
            sinr_factory,
            graph_factory,
            protocol_factory,
            collision_free_factory,
        ):
            first_stats, first_seq = run_once(factory, seed=3)
            second_stats, second_seq = run_once(factory, seed=3)
            assert first_stats == second_stats, factory.__name__
            assert first_seq == second_seq, factory.__name__

    def test_different_seeds_diverge(self):
        # sanity check that the equality assertions above have teeth
        first_stats, first_seq = run_once(sinr_factory, seed=5)
        other_stats, other_seq = run_once(sinr_factory, seed=6)
        assert (first_stats, first_seq) != (other_stats, other_seq)

    @pytest.mark.parametrize(
        "factory",
        [sinr_factory, graph_factory, protocol_factory, collision_free_factory],
        ids=lambda factory: factory.__name__,
    )
    def test_reused_channel_carries_no_state(self, factory):
        # a channel is reused across runs (SRS rounds, repeated frames);
        # a second run on the same instance equals a run on a fresh one
        channel = factory(deployment())
        run_once(factory, seed=11, channel=channel)
        assert run_once(factory, seed=11, channel=channel) == run_once(
            factory, seed=11
        )
