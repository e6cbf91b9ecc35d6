"""Differential tests: vectorised channels vs naive reference resolvers.

The fast engine rewrites the numerical core every theorem check depends
on, so each channel's semantics is re-implemented here as a deliberately
naive O(n * k) Python loop — no NumPy vectorisation, no shared distance
matrix, Euclidean distances via ``math.dist`` — and the fast path is
required to produce the *identical* delivery list — the same
``(receiver, sender, payload)`` triples in the same receiver order — on
a large corpus of seeded random scenarios:

* varying node count, density, and sender fraction,
* half-duplex on and off,
* coincident nodes (exercising the SINR near-field floor),
* empty and singleton sender sets,
* every channel wrapped in a :class:`~repro.faults.FaultyChannel` under
  each fault kind (outage, skew, jammer, drop, corrupt), against a naive
  list-based fault pipeline drawing the same coins in the same order.

Tie-breaking is part of the contract: where several senders are equally
strong/near, the one earliest in transmission order wins (``np.argmax`` /
``np.argmin`` both return the first maximal index, as do Python's
``max``/``min``), so references and fast paths agree exactly even on
degenerate geometry.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.faults import (
    FaultPlan,
    FaultyChannel,
    Jammer,
    MessageFaults,
    NodeOutage,
    SlotSkew,
)
from repro.simulation.rng import rng_from_seed
from repro.sinr.channel import (
    CollisionFreeChannel,
    Delivery,
    GraphChannel,
    ProtocolChannel,
    SINRChannel,
    Transmission,
)
from repro.sinr.params import PhysicalParams
from repro.telemetry import MetricsRegistry

PARAMS = PhysicalParams().with_r_t(1.0)
SCENARIO_SEEDS = range(60)


# -- naive reference resolvers -------------------------------------------------


def reference_sinr(positions, params, transmissions, half_duplex=True):
    """Loop-based SINR semantics: strongest in-range sender beats the SINR bar."""
    deliveries = []
    sender_set = {t.sender for t in transmissions}
    floor = params.r_t * 1e-6
    for u in range(len(positions)):
        if half_duplex and u in sender_set:
            continue
        received = []
        for t in transmissions:
            if t.sender == u:
                received.append(0.0)  # own signal: neither signal nor interference
            else:
                gap = max(math.dist(positions[u], positions[t.sender]), floor)
                received.append(params.power / gap**params.alpha)
        if not received:
            continue
        best = max(range(len(received)), key=lambda j: received[j])
        best_power = received[best]
        if best_power <= 0.0:
            continue
        gap = max(math.dist(positions[u], positions[transmissions[best].sender]), floor)
        if gap > params.r_t:
            continue
        interference = sum(received) - best_power
        if best_power >= params.beta * (params.noise + interference):
            deliveries.append(
                Delivery(u, transmissions[best].sender, transmissions[best].payload)
            )
    return deliveries


def reference_graph(positions, radius, transmissions, half_duplex=True):
    """Loop-based graph semantics: exactly one transmitting neighbour."""
    deliveries = []
    sender_set = {t.sender for t in transmissions}
    for u in range(len(positions)):
        if half_duplex and u in sender_set:
            continue
        hitters = [
            t
            for t in transmissions
            if t.sender != u and math.dist(positions[u], positions[t.sender]) <= radius
        ]
        if len(hitters) == 1:
            deliveries.append(Delivery(u, hitters[0].sender, hitters[0].payload))
    return deliveries


def reference_protocol(positions, radius, guard, transmissions, half_duplex=True):
    """Loop-based protocol semantics: nearest in range, empty guard zone."""
    deliveries = []
    sender_set = {t.sender for t in transmissions}
    guard_radius = (1.0 + guard) * radius
    for u in range(len(positions)):
        if half_duplex and u in sender_set:
            continue
        others = [t for t in transmissions if t.sender != u]
        if not others:
            continue
        gaps = [math.dist(positions[u], positions[t.sender]) for t in others]
        nearest = min(range(len(others)), key=lambda j: gaps[j])
        if gaps[nearest] > radius:
            continue
        if sum(1 for gap in gaps if gap <= guard_radius) != 1:
            continue
        deliveries.append(Delivery(u, others[nearest].sender, others[nearest].payload))
    return deliveries


def reference_collision_free(positions, radius, transmissions, half_duplex=True):
    """Loop-based oracle semantics: nearest sender within range always decodes."""
    deliveries = []
    sender_set = {t.sender for t in transmissions}
    for u in range(len(positions)):
        if half_duplex and u in sender_set:
            continue
        others = [t for t in transmissions if t.sender != u]
        if not others:
            continue
        gaps = [math.dist(positions[u], positions[t.sender]) for t in others]
        nearest = min(range(len(others)), key=lambda j: gaps[j])
        if gaps[nearest] <= radius:
            deliveries.append(
                Delivery(u, others[nearest].sender, others[nearest].payload)
            )
    return deliveries


# -- scenario corpus -----------------------------------------------------------


def random_scenario(seed: int):
    """One seeded scenario: positions, transmissions, half-duplex flag.

    Mixes sizes, densities and sender fractions; with some probability
    collapses a few nodes onto shared coordinates so the near-field floor
    and exact distance ties are exercised.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 64))
    extent = float(rng.uniform(1.5, 8.0))
    positions = rng.uniform(0.0, extent, size=(n, 2))
    if n >= 4 and rng.random() < 0.35:
        # coincident pairs: duplicate up to two coordinates exactly
        for _ in range(int(rng.integers(1, 3))):
            a, b = rng.choice(n, size=2, replace=False)
            positions[b] = positions[a]
    fraction = float(rng.uniform(0.05, 0.7))
    k = max(1, int(round(fraction * n)))
    senders = rng.choice(n, size=k, replace=False)
    transmissions = [Transmission(int(s), ("payload", int(s))) for s in senders]
    half_duplex = bool(rng.random() < 0.5)
    return positions, transmissions, half_duplex


def as_list(deliveries):
    """The deliveries as ``(receiver, sender, payload)`` triples, in order."""
    return [(d.receiver, d.sender, d.payload) for d in deliveries]


def as_set(deliveries):
    return set(as_list(deliveries))


# -- differential suites -------------------------------------------------------


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_sinr_matches_reference(seed):
    positions, transmissions, half_duplex = random_scenario(seed)
    fast = SINRChannel(positions, PARAMS, half_duplex=half_duplex)
    assert as_list(fast.resolve(transmissions)) == as_list(
        reference_sinr(positions, PARAMS, transmissions, half_duplex)
    )


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_graph_matches_reference(seed):
    positions, transmissions, half_duplex = random_scenario(seed)
    fast = GraphChannel(positions, PARAMS.r_t, half_duplex=half_duplex)
    assert as_list(fast.resolve(transmissions)) == as_list(
        reference_graph(positions, PARAMS.r_t, transmissions, half_duplex)
    )


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_protocol_matches_reference(seed):
    positions, transmissions, half_duplex = random_scenario(seed)
    guard = float(np.random.default_rng(seed + 10_000).uniform(0.0, 1.0))
    fast = ProtocolChannel(
        positions, PARAMS.r_t, guard=guard, half_duplex=half_duplex
    )
    assert as_list(fast.resolve(transmissions)) == as_list(
        reference_protocol(positions, PARAMS.r_t, guard, transmissions, half_duplex)
    )


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_collision_free_matches_reference(seed):
    positions, transmissions, half_duplex = random_scenario(seed)
    fast = CollisionFreeChannel(positions, PARAMS.r_t, half_duplex=half_duplex)
    assert as_list(fast.resolve(transmissions)) == as_list(
        reference_collision_free(positions, PARAMS.r_t, transmissions, half_duplex)
    )


def evaluations_of(channel):
    """Attach a fresh registry; return a reader of its evaluation counter."""
    registry = MetricsRegistry()
    channel.attach_metrics(registry)
    return lambda: registry.counter("engine.interference_evaluations").value


@pytest.mark.parametrize("seed", range(12))
def test_sinr_repeated_sender_set_matches_reference(seed):
    """A TDMA frame repeats its sender sets: every repeat rebuilds the
    ``(n, k)`` distances and still decodes exactly as the reference."""
    positions, transmissions, half_duplex = random_scenario(seed)
    fast = SINRChannel(positions, PARAMS, half_duplex=half_duplex)
    evaluations = evaluations_of(fast)
    expected = as_list(reference_sinr(positions, PARAMS, transmissions, half_duplex))
    for _ in range(3):
        assert as_list(fast.resolve(transmissions)) == expected
    assert evaluations() == 3 * len(positions) * len(transmissions)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", ["protocol", "collision_free"])
def test_nearest_sender_repeated_sender_set_matches_reference(kind, seed):
    """The nearest-sender channels mask the distance matrix in place;
    every repeat rebuilds it and decodes exactly as the reference."""
    positions, transmissions, half_duplex = random_scenario(seed)
    if kind == "protocol":
        fast = ProtocolChannel(
            positions, PARAMS.r_t, guard=0.5, half_duplex=half_duplex
        )
        expected = reference_protocol(
            positions, PARAMS.r_t, 0.5, transmissions, half_duplex
        )
    else:
        fast = CollisionFreeChannel(positions, PARAMS.r_t, half_duplex=half_duplex)
        expected = reference_collision_free(
            positions, PARAMS.r_t, transmissions, half_duplex
        )
    evaluations = evaluations_of(fast)
    for _ in range(3):
        assert as_list(fast.resolve(transmissions)) == as_list(expected)
    assert evaluations() == 3 * len(positions) * len(transmissions)


@pytest.mark.parametrize("seed", range(12))
def test_array_form_matches_transmission_form(seed):
    """``resolve(senders, payloads)`` — the event engine's call — returns
    what ``resolve(transmissions)`` does, wrapped or not."""
    positions, transmissions, half_duplex = random_scenario(seed)
    senders = np.array([t.sender for t in transmissions], dtype=np.intp)
    payloads = [t.payload for t in transmissions]
    plan = FaultPlan(messages=MessageFaults(drop=0.3))
    for make in (
        lambda: SINRChannel(positions, PARAMS, half_duplex=half_duplex),
        lambda: GraphChannel(positions, PARAMS.r_t, half_duplex=half_duplex),
        lambda: ProtocolChannel(positions, PARAMS.r_t, half_duplex=half_duplex),
        lambda: CollisionFreeChannel(positions, PARAMS.r_t, half_duplex=half_duplex),
        lambda: FaultyChannel(SINRChannel(positions, PARAMS), plan, seed=seed),
    ):
        by_array = make().resolve(senders, payloads)
        assert by_array.senders.tolist() == senders.tolist()
        assert as_list(by_array) == as_list(make().resolve(transmissions))


class TestDegenerateSenderSets:
    """Empty and singleton sender sets, on every channel type."""

    def channels(self, positions):
        return [
            SINRChannel(positions, PARAMS),
            GraphChannel(positions, PARAMS.r_t),
            ProtocolChannel(positions, PARAMS.r_t, guard=0.5),
            CollisionFreeChannel(positions, PARAMS.r_t),
        ]

    def test_empty_sender_set(self):
        positions = np.random.default_rng(0).uniform(0, 3, size=(10, 2))
        for channel in self.channels(positions):
            assert channel.resolve([]) == []

    def test_singleton_sender_reaches_neighbors(self):
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 5.0]])
        for channel in self.channels(positions):
            deliveries = channel.resolve([Transmission(0, "x")])
            assert [(d.receiver, d.sender) for d in deliveries] == [(1, 0)]

    def test_single_node_transmitting_alone(self):
        positions = np.array([[0.0, 0.0]])
        for channel in self.channels(positions):
            assert channel.resolve([Transmission(0, "x")]) == []

    def test_all_nodes_transmitting_half_duplex(self):
        positions = np.random.default_rng(1).uniform(0, 2, size=(6, 2))
        transmissions = [Transmission(i, i) for i in range(6)]
        for channel in self.channels(positions):
            assert channel.resolve(transmissions) == []

    def test_result_arrays_are_read_only(self):
        # The empty answer shares its arrays across slots, so an edit
        # through any result must fail.
        positions = np.array([[0.0, 0.0], [0.5, 0.0], [5.0, 5.0]])
        channels = self.channels(positions)
        channels.append(FaultyChannel(SINRChannel(positions, PARAMS), FaultPlan()))
        for channel in channels:
            for transmissions in ([Transmission(0, "x")], []):
                result = channel.resolve(transmissions)
                for array in (result.receivers, result.columns):
                    with pytest.raises(ValueError):
                        array[:] = 0


class TestCoincidentNodes:
    """Near-field-floor semantics on exactly coincident coordinates."""

    def test_single_coincident_sender_decodes_enormous_sinr(self):
        # receiver exactly on top of the only sender: floor clamps the
        # distance, SINR is astronomically high, message received
        positions = np.array([[1.0, 1.0], [1.0, 1.0]])
        channel = SINRChannel(positions, PARAMS)
        deliveries = channel.resolve([Transmission(0, "x")])
        assert [(d.receiver, d.sender) for d in deliveries] == [(1, 0)]

    def test_two_coincident_senders_jam_each_other(self):
        # matches the reference exactly: both powers equal, ratio 1 < beta
        positions = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        transmissions = [Transmission(0, "a"), Transmission(1, "b")]
        fast = SINRChannel(positions, PARAMS)
        assert fast.resolve(transmissions) == []
        assert reference_sinr(positions, PARAMS, transmissions) == []

    def test_coincident_scenarios_match_reference(self):
        # a denser sweep of duplicated-coordinate scenarios
        for seed in range(20):
            rng = np.random.default_rng(seed)
            base = rng.uniform(0, 2, size=(5, 2))
            positions = np.vstack([base, base[:2]])  # nodes 5,6 coincide with 0,1
            k = int(rng.integers(1, 5))
            senders = rng.choice(7, size=k, replace=False)
            transmissions = [Transmission(int(s), int(s)) for s in senders]
            fast = SINRChannel(positions, PARAMS)
            assert as_list(fast.resolve(transmissions)) == as_list(
                reference_sinr(positions, PARAMS, transmissions)
            )


class TestDistancesComputedOncePerSlot:
    """The seed computed the dense distance matrix twice per SINR slot;
    the engine's ``engine.interference_evaluations`` counter (``n * k``
    per distance-matrix build) proves it now happens exactly once."""

    @staticmethod
    def evaluations(channel, transmissions):
        registry = MetricsRegistry()
        channel.attach_metrics(registry)
        deliveries = channel.resolve(transmissions)
        return registry.counter("engine.interference_evaluations").value, deliveries

    def test_sinr_resolve_computes_geometry_once(self):
        rng = np.random.default_rng(7)
        positions = rng.uniform(0, 5, size=(40, 2))
        channel = SINRChannel(positions, PARAMS)
        transmissions = [Transmission(int(s), "x") for s in range(0, 40, 7)]
        evaluations, deliveries = self.evaluations(channel, transmissions)
        # exactly one (n, k) build for the slot, and the result matches
        # the naive reference built from per-pair distances
        assert evaluations == 40 * len(transmissions)
        assert as_list(deliveries) == as_list(
            reference_sinr(positions, PARAMS, transmissions)
        )

    def test_dense_channels_compute_geometry_once(self):
        rng = np.random.default_rng(8)
        positions = rng.uniform(0, 4, size=(30, 2))
        transmissions = [Transmission(int(s), "x") for s in (0, 3, 9, 17)]
        for channel in (
            ProtocolChannel(positions, PARAMS.r_t, guard=0.5),
            CollisionFreeChannel(positions, PARAMS.r_t),
        ):
            evaluations, _ = self.evaluations(channel, transmissions)
            assert evaluations == 30 * len(transmissions)


# -- the fault wrapper ---------------------------------------------------------


def reference_faults(positions, reach, plan, rng, slot, resolve, transmissions):
    """Loop-based fault pipeline around a reference resolver ``resolve``.

    Stage order and coin draws follow :class:`FaultyChannel`'s contract:
    sender outages, the channel, slot skew, receiver outages, jammers,
    then one drop coin and one corruption coin per surviving delivery.
    """

    def down(node):
        return any(o.down(slot) for o in plan.outages if o.node == node)

    def desynced(node):
        return any(s.desynced(slot) for s in plan.skews if s.node == node)

    deliveries = resolve([t for t in transmissions if not down(t.sender)])
    deliveries = [d for d in deliveries if not desynced(d.sender)]
    deliveries = [d for d in deliveries if not down(d.receiver)]
    active = [j for j in plan.jammers if j.active(slot)]
    if active:
        threshold = plan.fallback_threshold(PARAMS)
        floor = max(reach, 1.0) * 1e-6

        def jammed(node):
            total = 0.0
            for jammer in active:
                gap = max(math.dist(positions[node], (jammer.x, jammer.y)), floor)
                total += jammer.power / gap**jammer.alpha
            return total >= threshold

        deliveries = [d for d in deliveries if not jammed(d.receiver)]
    for rate in (plan.messages.drop, plan.messages.corrupt):
        if deliveries and rate > 0.0:
            coins = rng.random(len(deliveries))
            deliveries = [d for d, coin in zip(deliveries, coins) if coin >= rate]
    return deliveries


def fault_plan(kind, positions, seed):
    """One plan exercising a single fault kind on this scenario."""
    rng = np.random.default_rng(seed + 20_000)
    n = len(positions)
    nodes = [int(v) for v in rng.choice(n, size=max(1, n // 3), replace=False)]
    if kind == "outage":
        return FaultPlan(outages=tuple(NodeOutage(node=v, start=1) for v in nodes))
    if kind == "skew":
        return FaultPlan(skews=tuple(SlotSkew(node=v, period=2) for v in nodes))
    if kind == "jammer":
        x, y = positions[int(rng.integers(n))]
        return FaultPlan(
            jammers=(Jammer(x=float(x) + 0.3, y=float(y), power=1.0, period=2),),
            jam_threshold=float(rng.uniform(0.5, 50.0)),
        )
    if kind == "drop":
        return FaultPlan(messages=MessageFaults(drop=0.4))
    if kind == "corrupt":
        return FaultPlan(messages=MessageFaults(corrupt=0.3))
    # both coins: the corruption coins are drawn for the drop's survivors
    return FaultPlan(messages=MessageFaults(drop=0.4, corrupt=0.3))


@pytest.mark.parametrize(
    "kind", ["outage", "skew", "jammer", "drop", "corrupt", "drop+corrupt"]
)
@pytest.mark.parametrize("seed", range(8))
def test_faulty_channel_matches_reference(kind, seed):
    """Each channel under each fault kind, over four slots of one wrapper."""
    positions, transmissions, half_duplex = random_scenario(seed)
    guard = float(np.random.default_rng(seed + 10_000).uniform(0.0, 1.0))
    plan = fault_plan(kind, positions, seed)
    r = PARAMS.r_t
    cases = [
        (
            SINRChannel(positions, PARAMS, half_duplex=half_duplex),
            lambda tx: reference_sinr(positions, PARAMS, tx, half_duplex),
        ),
        (
            GraphChannel(positions, r, half_duplex=half_duplex),
            lambda tx: reference_graph(positions, r, tx, half_duplex),
        ),
        (
            ProtocolChannel(positions, r, guard=guard, half_duplex=half_duplex),
            lambda tx: reference_protocol(positions, r, guard, tx, half_duplex),
        ),
        (
            CollisionFreeChannel(positions, r, half_duplex=half_duplex),
            lambda tx: reference_collision_free(positions, r, tx, half_duplex),
        ),
    ]
    for inner, resolve in cases:
        channel = FaultyChannel(inner, plan, seed=seed)
        rng = rng_from_seed(seed)
        for slot in range(4):
            channel.begin_slot(slot)
            expected = reference_faults(
                positions, r, plan, rng, slot, resolve, transmissions
            )
            assert as_list(channel.resolve(transmissions)) == as_list(expected)
