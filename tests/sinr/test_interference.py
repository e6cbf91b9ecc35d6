"""Unit tests for interference measurement (Lemma 3 instrumentation)."""

import numpy as np
import pytest

from repro.sinr.interference import InterferenceMeter, received_power, total_interference
from repro.sinr.params import PhysicalParams


@pytest.fixture()
def params():
    return PhysicalParams().with_r_t(1.0)


class TestReceivedPower:
    def test_vectorised_law(self, params):
        dist = np.array([1.0, 2.0])
        power = received_power(params, dist)
        assert power[0] == pytest.approx(params.power)
        assert power[1] == pytest.approx(params.power / 2**params.alpha)

    def test_rejects_zero_distance(self, params):
        with pytest.raises(ValueError):
            received_power(params, np.array([0.0]))


class TestTotalInterference:
    def test_sums_all_senders(self, params):
        positions = np.array([[0.0, 0], [1.0, 0], [2.0, 0]])
        total = total_interference(params, positions, 0, np.array([1, 2]))
        expected = params.power * (1.0 + 1.0 / 2**params.alpha)
        assert total == pytest.approx(expected)

    def test_excludes_receiver(self, params):
        positions = np.array([[0.0, 0], [1.0, 0]])
        total = total_interference(params, positions, 0, np.array([0, 1]))
        assert total == pytest.approx(params.power)

    def test_empty_senders(self, params):
        positions = np.array([[0.0, 0]])
        assert total_interference(params, positions, 0, np.array([])) == 0.0


class TestInterferenceMeter:
    def test_split_respects_boundary(self, params):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]])
        meter = InterferenceMeter(
            params=params, positions=positions, receivers=np.array([0]), boundary=2.0
        )
        meter.observe(np.array([1, 2]))
        assert meter.slots_observed == 1
        assert meter.mean_inside() == pytest.approx(params.power)
        assert meter.mean_outside() == pytest.approx(
            params.power / 5**params.alpha
        )

    def test_receiver_excluded(self, params):
        # a receiver's own transmission is no interference to itself
        meter = InterferenceMeter(
            params=params,
            positions=np.array([[0.0, 0.0], [1.0, 0.0]]),
            receivers=np.array([0]),
            boundary=2.0,
        )
        meter.observe(np.array([0, 1]))
        assert meter.mean_inside() == pytest.approx(params.power)
        assert meter.mean_outside() == 0.0

    def test_default_boundary_is_ri(self, params):
        meter = InterferenceMeter(
            params=params, positions=np.zeros((1, 2)), receivers=np.array([0])
        )
        assert meter.boundary == pytest.approx(params.r_i)

    def test_silent_slot_counts_zero(self, params):
        meter = InterferenceMeter(
            params=params,
            positions=np.array([[0.0, 0.0], [1.0, 0.0]]),
            receivers=np.array([0]),
            boundary=2.0,
        )
        meter.observe(np.array([]))
        assert meter.mean_outside() == 0.0
        assert meter.slots_observed == 1

    def test_bound_matches_params(self, params):
        meter = InterferenceMeter(
            params=params, positions=np.zeros((1, 2)), receivers=np.array([0])
        )
        assert meter.bound() == pytest.approx(params.outside_interference_bound)

    def test_max_tracks_worst_sample(self, params):
        positions = np.array([[0.0, 0.0], [3.0, 0.0], [6.0, 0.0]])
        meter = InterferenceMeter(
            params=params, positions=positions, receivers=np.array([0]), boundary=1.0
        )
        meter.observe(np.array([1]))
        meter.observe(np.array([1, 2]))
        assert meter.max_outside() > meter.mean_outside() > 0.0
