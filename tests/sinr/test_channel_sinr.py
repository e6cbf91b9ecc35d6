"""Unit tests for the SINR channel."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sinr.channel import SINRChannel, Transmission
from repro.sinr.params import PhysicalParams


@pytest.fixture()
def params():
    return PhysicalParams().with_r_t(1.0)


def channel_for(positions, params, **kwargs):
    return SINRChannel(np.asarray(positions, dtype=float), params, **kwargs)


class TestSingleSender:
    def test_neighbor_receives(self, params):
        channel = channel_for([[0, 0], [0.5, 0]], params)
        deliveries = channel.resolve([Transmission(0, "hello")])
        assert len(deliveries) == 1
        d = deliveries[0]
        assert (d.receiver, d.sender, d.payload) == (1, 0, "hello")

    def test_out_of_range_silent(self, params):
        channel = channel_for([[0, 0], [1.5, 0]], params)
        assert channel.resolve([Transmission(0, "x")]) == []

    def test_boundary_at_rt_received(self, params):
        channel = channel_for([[0, 0], [1.0, 0]], params)
        assert len(channel.resolve([Transmission(0, "x")])) == 1

    def test_between_rt_and_rmax_not_received(self, params):
        # decodable by raw SINR but beyond the paper's R_T margin
        r = (params.r_t + params.r_max) / 2
        channel = channel_for([[0, 0], [r, 0]], params)
        assert channel.resolve([Transmission(0, "x")]) == []

    def test_broadcast_reaches_all_neighbors(self, params):
        channel = channel_for([[0, 0], [0.5, 0], [0, 0.5], [3, 3]], params)
        deliveries = channel.resolve([Transmission(0, "x")])
        receivers = sorted(d.receiver for d in deliveries)
        assert receivers == [1, 2]

    def test_no_transmissions(self, params):
        channel = channel_for([[0, 0]], params)
        assert channel.resolve([]) == []


class TestInterference:
    def test_two_nearby_senders_collide(self, params):
        # receiver between two equidistant senders: SINR = 1 < beta = 2
        channel = channel_for([[0, 0], [1.0, 0], [2.0, 0]], params)
        deliveries = channel.resolve([Transmission(0, "a"), Transmission(2, "b")])
        assert all(d.receiver != 1 for d in deliveries)

    def test_far_interferer_tolerated(self, params):
        # interferer 10 R_T away contributes ~1e-4 of the budget
        channel = channel_for([[0, 0], [0.5, 0], [10.0, 0], [10.5, 0]], params)
        deliveries = channel.resolve([Transmission(0, "a"), Transmission(3, "b")])
        receivers = {d.receiver for d in deliveries}
        assert 1 in receivers

    def test_near_far_capture(self, params):
        # a close sender survives a distant simultaneous one (capture effect)
        channel = channel_for([[0, 0], [0.2, 0], [4.0, 0]], params)
        deliveries = channel.resolve([Transmission(0, "near"), Transmission(2, "far")])
        by_receiver = {d.receiver: d for d in deliveries}
        assert by_receiver[1].sender == 0

    def test_additivity_many_weak_interferers_kill(self, params):
        # 30 interferers at distance 3: each contributes P/81, total ~0.37P,
        # way over the ~noise-sized budget of an edge-of-range link.
        angles = np.linspace(0, 2 * np.pi, 30, endpoint=False)
        ring = np.column_stack([3 * np.cos(angles), 3 * np.sin(angles)])
        positions = np.vstack([[0, 0], [0.98, 0], ring])
        channel = SINRChannel(positions, params)
        transmissions = [Transmission(0, "x")] + [
            Transmission(i + 2, f"i{i}") for i in range(30)
        ]
        deliveries = channel.resolve(transmissions)
        assert all(d.receiver != 1 for d in deliveries)

    def test_single_weak_interferer_tolerated_close_in(self, params):
        # same geometry but only one ring interferer: budget holds at 0.5 R_T
        positions = np.array([[0, 0], [0.5, 0], [3.0, 0]])
        channel = SINRChannel(positions, params)
        deliveries = channel.resolve([Transmission(0, "x"), Transmission(2, "y")])
        assert any(d.receiver == 1 and d.sender == 0 for d in deliveries)


class TestHalfDuplex:
    def test_transmitter_cannot_receive(self, params):
        channel = channel_for([[0, 0], [0.5, 0]], params)
        deliveries = channel.resolve([Transmission(0, "a"), Transmission(1, "b")])
        # both transmit: neither receives
        assert deliveries == []

    def test_full_duplex_option(self, params):
        channel = channel_for([[0, 0], [0.5, 0]], params, half_duplex=False)
        deliveries = channel.resolve([Transmission(0, "a"), Transmission(1, "b")])
        # with only each other as interferer at 0.5, SINR is signal/noise-ish
        receivers = sorted(d.receiver for d in deliveries)
        assert receivers == [0, 1]


class TestValidation:
    def test_duplicate_sender_rejected(self, params):
        channel = channel_for([[0, 0], [1, 0]], params)
        for first, second in ((0, 0), (0.2, 0.7)):  # 0.2 and 0.7 are node 0
            with pytest.raises(ConfigurationError):
                channel.resolve([Transmission(first, "a"), Transmission(second, "b")])

    def test_sender_out_of_range_rejected(self, params):
        channel = channel_for([[0, 0]], params)
        with pytest.raises(ConfigurationError):
            channel.resolve([Transmission(5, "a")])

    def test_array_form_is_validated_too(self, params):
        channel = channel_for([[0, 0], [1, 0]], params)
        for senders, payloads in (
            ([0, 0], ["a", "b"]),  # one node twice
            ([-1], ["a"]),  # out of range
            ([0, 1], ["a"]),  # a payload short
            ([0.2, 0.7], ["a", "b"]),  # one node twice once cast to intp
        ):
            with pytest.raises(ConfigurationError):
                channel.resolve(np.array(senders), payloads)

    def test_reach_is_rt(self, params):
        channel = channel_for([[0, 0]], params)
        assert channel.reach == pytest.approx(params.r_t)
