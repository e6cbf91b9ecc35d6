"""Determinism regression: same seed, same schedule, same channel —
bit-identical runs.

Every experiment in the reproduction leans on this: the engine rewrite
(vectorised resolution, sender-set caching) must not introduce any
run-to-run divergence.  Two independent executions with identical
configuration must produce the same :class:`RunStats` *and* the same
slot-by-slot transmission and delivery sequences, in the same order.
"""

from __future__ import annotations

import numpy as np

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


def run_once(channel_factory, seed: int, cache_slots: int = 0):
    rng = np.random.default_rng(99)
    positions = rng.uniform(0, 4, size=(30, 2))
    channel = channel_factory(positions, cache_slots)
    nodes = [RandomBeacon(i) for i in range(30)]
    schedule = WakeupSchedule.uniform_random(30, max_delay=5, seed=7)
    recorder = SequenceRecorder()
    simulator = EventSimulator(
        channel, nodes, schedule, seed=seed, observers=[recorder]
    )
    stats = simulator.run(max_slots=60)
    return stats, recorder.sequence


def sinr_factory(positions, cache_slots):
    return SINRChannel(positions, PARAMS, cache_slots=cache_slots)


def graph_factory(positions, cache_slots):
    return GraphChannel(positions, PARAMS.r_t)


def protocol_factory(positions, cache_slots):
    return ProtocolChannel(positions, PARAMS.r_t, guard=0.5, cache_slots=cache_slots)


def collision_free_factory(positions, cache_slots):
    return CollisionFreeChannel(positions, PARAMS.r_t, cache_slots=cache_slots)


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

    def test_cache_does_not_change_the_run(self):
        # caching is a pure optimisation: the full event sequence with the
        # geometry cache enabled is identical to the uncached run
        for factory in (sinr_factory, protocol_factory, collision_free_factory):
            cold_stats, cold_seq = run_once(factory, seed=11, cache_slots=0)
            warm_stats, warm_seq = run_once(factory, seed=11, cache_slots=16)
            assert cold_stats == warm_stats, factory.__name__
            assert cold_seq == warm_seq, factory.__name__
