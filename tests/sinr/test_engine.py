"""Unit tests for the shared resolution engine."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sinr.channel import Deliveries, Delivery, SINRChannel, Transmission
from repro.sinr.engine import ResolutionEngine
from repro.sinr.params import PhysicalParams

PARAMS = PhysicalParams().with_r_t(1.0)


@pytest.fixture()
def positions():
    return np.random.default_rng(3).uniform(0, 6, size=(25, 2))


class TestDistanceMatrix:
    def test_matches_pairwise_euclidean(self, positions):
        engine = ResolutionEngine(positions)
        senders = np.array([0, 4, 9, 17], dtype=np.intp)
        sq = engine.geometry(senders).dist_sq
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
        sq = engine.geometry(np.array([0], dtype=np.intp)).dist_sq
        assert sq[1, 0] == 0.0
        assert np.all(sq >= 0.0)

    def test_distances_method(self, positions):
        engine = ResolutionEngine(positions)
        senders = np.array([2, 11], dtype=np.intp)
        dist = engine.distances(senders)
        expected = np.hypot(
            *(positions[:, None, :] - positions[senders][None, :, :]).transpose(2, 0, 1)
        )
        np.testing.assert_allclose(dist, expected, rtol=1e-9, atol=1e-9)

    def test_column_order_follows_sender_order(self, positions):
        engine = ResolutionEngine(positions)
        forward = engine.geometry(np.array([3, 8], dtype=np.intp)).dist_sq
        backward = engine.geometry(np.array([8, 3], dtype=np.intp)).dist_sq
        np.testing.assert_array_equal(forward[:, 0], backward[:, 1])
        np.testing.assert_array_equal(forward[:, 1], backward[:, 0])


class TestDerivedArrays:
    def test_masked_sq_sets_own_columns_infinite(self, positions):
        engine = ResolutionEngine(positions)
        senders = np.array([1, 6], dtype=np.intp)
        geometry = engine.geometry(senders)
        masked = geometry.masked_sq()
        assert masked[1, 0] == np.inf
        assert masked[6, 1] == np.inf
        # everything else untouched
        keep = np.ones((25, 2), dtype=bool)
        keep[1, 0] = keep[6, 1] = False
        np.testing.assert_array_equal(masked[keep], geometry.dist_sq[keep])

    def test_power_matches_direct_path_loss(self, positions):
        engine = ResolutionEngine(positions)
        senders = np.array([0, 5], dtype=np.intp)
        geometry = engine.geometry(senders)
        floor = PARAMS.r_t * 1e-6
        power = geometry.power(PARAMS.power, PARAMS.alpha, floor * floor)
        diff = positions[:, None, :] - positions[senders][None, :, :]
        dist = np.maximum(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), floor)
        expected = PARAMS.power / dist**PARAMS.alpha
        expected[senders, np.arange(2)] = 0.0
        np.testing.assert_allclose(power, expected, rtol=1e-9)

    def test_non_integer_half_alpha_falls_back_to_generic_power(self, positions):
        params = PhysicalParams(alpha=3.0).with_r_t(1.0)
        engine = ResolutionEngine(positions)
        senders = np.array([2], dtype=np.intp)
        geometry = engine.geometry(senders)
        floor = params.r_t * 1e-6
        power = geometry.power(params.power, params.alpha, floor * floor)
        diff = positions - positions[2]
        dist = np.maximum(np.hypot(diff[:, 0], diff[:, 1]), floor)
        expected = params.power / dist**3.0
        expected[2] = 0.0
        np.testing.assert_allclose(power[:, 0], expected, rtol=1e-9)

    def test_derive_memoises(self, positions):
        engine = ResolutionEngine(positions)
        geometry = engine.geometry(np.array([0], dtype=np.intp))
        calls = []
        first = geometry.derive("k", lambda: calls.append(1) or "value")
        second = geometry.derive("k", lambda: calls.append(1) or "other")
        assert first == second == "value"
        assert len(calls) == 1


class TestCache:
    def test_disabled_by_default(self, positions):
        engine = ResolutionEngine(positions)
        senders = np.array([0, 1], dtype=np.intp)
        a = engine.geometry(senders)
        b = engine.geometry(senders)
        assert a is not b
        info = engine.cache_info()
        assert info.hits == 0 and info.misses == 2 and info.capacity == 0

    def test_hit_returns_same_geometry(self, positions):
        engine = ResolutionEngine(positions, cache_slots=4)
        senders = np.array([0, 1], dtype=np.intp)
        a = engine.geometry(senders)
        b = engine.geometry(np.array([0, 1], dtype=np.intp))
        assert a is b
        info = engine.cache_info()
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_sender_order_is_a_different_key(self, positions):
        engine = ResolutionEngine(positions, cache_slots=4)
        engine.geometry(np.array([0, 1], dtype=np.intp))
        engine.geometry(np.array([1, 0], dtype=np.intp))
        assert engine.cache_info().misses == 2

    def test_lru_eviction(self, positions):
        engine = ResolutionEngine(positions, cache_slots=2)
        first = np.array([0], dtype=np.intp)
        engine.geometry(first)
        engine.geometry(np.array([1], dtype=np.intp))
        engine.geometry(np.array([2], dtype=np.intp))  # evicts [0]
        engine.geometry(first)
        info = engine.cache_info()
        assert info.misses == 4 and info.hits == 0 and info.size == 2

    def test_lru_refresh_on_hit(self, positions):
        engine = ResolutionEngine(positions, cache_slots=2)
        first = np.array([0], dtype=np.intp)
        engine.geometry(first)
        engine.geometry(np.array([1], dtype=np.intp))
        engine.geometry(first)  # refresh [0]; [1] is now oldest
        engine.geometry(np.array([2], dtype=np.intp))  # evicts [1]
        engine.geometry(first)
        assert engine.cache_info().hits == 2

    def test_clear_cache(self, positions):
        engine = ResolutionEngine(positions, cache_slots=2)
        senders = np.array([0], dtype=np.intp)
        engine.geometry(senders)
        engine.clear_cache()
        assert engine.cache_info().size == 0
        engine.geometry(senders)
        assert engine.cache_info().misses == 2

    def test_hit_rate(self, positions):
        engine = ResolutionEngine(positions, cache_slots=2)
        assert engine.cache_info().hit_rate == 0.0
        senders = np.array([0], dtype=np.intp)
        engine.geometry(senders)
        engine.geometry(senders)
        assert engine.cache_info().hit_rate == pytest.approx(0.5)

    def test_negative_capacity_rejected(self, positions):
        with pytest.raises(ConfigurationError):
            ResolutionEngine(positions, cache_slots=-1)


class TestChannelIntegration:
    def test_cached_channel_reuses_reception_mask(self, positions):
        channel = SINRChannel(positions, PARAMS, cache_slots=3)
        transmissions = [Transmission(s, f"m{s}") for s in (0, 7, 13)]
        first = channel.resolve(transmissions)
        second = channel.resolve(transmissions)
        assert first == second
        info = channel.engine.cache_info()
        assert info.hits == 1 and info.misses == 1

    def test_payloads_are_fresh_on_cached_slots(self, positions):
        # the geometry is cached, the payloads must not be
        channel = SINRChannel(positions, PARAMS, cache_slots=3)
        first = channel.resolve([Transmission(0, "round-1")])
        second = channel.resolve([Transmission(0, "round-2")])
        assert {d.payload for d in first} <= {"round-1"}
        assert {d.payload for d in second} <= {"round-2"}
        assert len(first) == len(second)

    def test_signal_matrix_returns_private_copy(self, positions):
        channel = SINRChannel(positions, PARAMS, cache_slots=3)
        senders = np.array([0, 7], dtype=np.intp)
        matrix = channel.signal_matrix(senders)
        matrix[:] = -1.0
        again = channel.signal_matrix(senders)
        assert np.all(again >= 0.0)


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
