"""Unit tests for the shared resolution engine."""

import numpy as np
import pytest

from repro.sinr.channel import (
    CollisionFreeChannel,
    Deliveries,
    Delivery,
    ProtocolChannel,
    SINRChannel,
    Transmission,
)
from repro.sinr.engine import ResolutionEngine, apply_power_law
from repro.sinr.params import PhysicalParams
from repro.telemetry import MetricsRegistry

PARAMS = PhysicalParams().with_r_t(1.0)


@pytest.fixture()
def positions():
    return np.random.default_rng(3).uniform(0, 6, size=(25, 2))


class TestDistanceMatrix:
    def test_matches_pairwise_euclidean(self, positions):
        engine = ResolutionEngine(positions)
        senders = np.array([0, 4, 9, 17], dtype=np.intp)
        sq = engine.distance_sq(senders)
        diff = positions[:, None, :] - positions[senders][None, :, :]
        expected = np.einsum("ijk,ijk->ij", diff, diff)
        assert sq.shape == (25, 4)
        np.testing.assert_allclose(sq, expected, rtol=1e-9, atol=1e-9)

    def test_never_negative_for_coincident_points(self):
        # the Gram expansion can round a true 0 slightly negative;
        # the engine must clamp it
        base = np.array([[123.456, 789.012]])
        positions = np.vstack([base, base, base + 1.0])
        engine = ResolutionEngine(positions)
        sq = engine.distance_sq(np.array([0], dtype=np.intp))
        assert sq[1, 0] == 0.0
        assert np.all(sq >= 0.0)

    def test_column_order_follows_sender_order(self, positions):
        engine = ResolutionEngine(positions)
        forward = engine.distance_sq(np.array([3, 8], dtype=np.intp))
        backward = engine.distance_sq(np.array([8, 3], dtype=np.intp))
        np.testing.assert_array_equal(forward[:, 0], backward[:, 1])
        np.testing.assert_array_equal(forward[:, 1], backward[:, 0])


    def test_returns_a_fresh_array_per_call(self, positions):
        # channels mask the matrix in place, so no call may see another's edit
        engine = ResolutionEngine(positions)
        senders = np.array([1, 6, 12], dtype=np.intp)
        first = engine.distance_sq(senders)
        pristine = first.copy()
        first[:] = np.inf
        np.testing.assert_array_equal(engine.distance_sq(senders), pristine)


class TestEvaluationCounter:
    def test_counts_n_times_k_per_build(self, positions):
        registry = MetricsRegistry()
        engine = ResolutionEngine(positions)
        engine.attach_metrics(registry)
        engine.distance_sq(np.array([0, 4, 9], dtype=np.intp))
        engine.distance_sq(np.array([3], dtype=np.intp))
        counter = registry.counter("engine.interference_evaluations")
        assert counter.value == 25 * 3 + 25 * 1

    def test_disabled_registry_binds_nothing(self, positions):
        registry = MetricsRegistry(enabled=False)
        engine = ResolutionEngine(positions)
        engine.attach_metrics(registry)
        engine.distance_sq(np.array([0, 4], dtype=np.intp))
        assert engine._m_evals is None
        assert len(registry) == 0

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: SINRChannel(p, PARAMS),
            lambda p: ProtocolChannel(p, PARAMS.r_t, guard=0.5),
            lambda p: CollisionFreeChannel(p, PARAMS.r_t),
        ],
        ids=["sinr", "protocol", "collision_free"],
    )
    def test_channel_builds_once_per_non_empty_slot(self, positions, make):
        registry = MetricsRegistry()
        channel = make(positions)
        channel.attach_metrics(registry)
        channel.resolve([])
        channel.resolve([Transmission(2, "a"), Transmission(7, "b")])
        channel.resolve([Transmission(2, "a"), Transmission(7, "b")])
        counter = registry.counter("engine.interference_evaluations")
        assert counter.value == 2 * 25 * 2


class TestDerivedArrays:
    def test_power_matches_direct_path_loss(self, positions):
        engine = ResolutionEngine(positions)
        senders = np.array([0, 5], dtype=np.intp)
        floor = PARAMS.r_t * 1e-6
        power = apply_power_law(
            np.maximum(engine.distance_sq(senders), floor * floor),
            PARAMS.power,
            PARAMS.alpha,
        )
        diff = positions[:, None, :] - positions[senders][None, :, :]
        dist = np.maximum(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), floor)
        expected = PARAMS.power / dist**PARAMS.alpha
        np.testing.assert_allclose(power, expected, rtol=1e-9)

    def test_non_integer_half_alpha_falls_back_to_generic_power(self, positions):
        params = PhysicalParams(alpha=3.0).with_r_t(1.0)
        engine = ResolutionEngine(positions)
        floor = params.r_t * 1e-6
        power = apply_power_law(
            np.maximum(engine.distance_sq(np.array([2], dtype=np.intp)), floor * floor),
            params.power,
            params.alpha,
        )
        diff = positions - positions[2]
        dist = np.maximum(np.hypot(diff[:, 0], diff[:, 1]), floor)
        expected = params.power / dist**3.0
        np.testing.assert_allclose(power[:, 0], expected, rtol=1e-9)


class TestChannelIntegration:
    def test_payloads_are_fresh_on_repeated_sender_sets(self, positions):
        # a repeated sender set decodes alike, with this slot's payloads
        channel = SINRChannel(positions, PARAMS)
        first = channel.resolve([Transmission(0, "round-1")])
        second = channel.resolve([Transmission(0, "round-2")])
        assert {d.payload for d in first} <= {"round-1"}
        assert {d.payload for d in second} <= {"round-2"}
        assert len(first) == len(second)


class TestDeliveries:
    def test_builds_python_typed_deliveries(self):
        senders = np.array([5, 9], dtype=np.intp)
        receivers = np.array([2, 3], dtype=np.intp)
        columns = np.array([1, 0], dtype=np.intp)
        deliveries = Deliveries(receivers, columns, senders, ["a", "b"])
        assert [(d.receiver, d.sender, d.payload) for d in deliveries] == [
            (2, 9, "b"),
            (3, 5, "a"),
        ]
        assert all(
            type(d.receiver) is int and type(d.sender) is int for d in deliveries
        )

    def test_length_and_arrays_build_no_objects(self):
        deliveries = Deliveries(
            np.array([0, 4], dtype=np.intp),
            np.array([0, 0], dtype=np.intp),
            np.array([7], dtype=np.intp),
            ["x"],
        )
        assert len(deliveries) == 2
        assert deliveries.receivers.tolist() == [0, 4]
        assert deliveries._items is None

    def test_equals_the_list_of_the_same_deliveries(self):
        deliveries = Deliveries(
            np.array([1, 3], dtype=np.intp),
            np.array([0, 1], dtype=np.intp),
            np.array([5, 6], dtype=np.intp),
            ["a", "b"],
        )
        expected = [Delivery(1, 5, "a"), Delivery(3, 6, "b")]
        assert deliveries == expected
        assert expected == deliveries
        assert deliveries != expected[::-1]
        assert deliveries[-1] == Delivery(3, 6, "b")
        assert deliveries[:1] == expected[:1]
        assert Delivery(1, 5, "a") in deliveries
