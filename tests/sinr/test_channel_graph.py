"""Unit tests for the graph-based and collision-free channels."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sinr.channel import CollisionFreeChannel, GraphChannel, Transmission


class TestGraphChannel:
    def test_single_neighbor_heard(self):
        channel = GraphChannel(np.array([[0.0, 0], [0.5, 0]]), radius=1.0)
        deliveries = channel.resolve([Transmission(0, "x")])
        assert [(d.receiver, d.sender) for d in deliveries] == [(1, 0)]

    def test_two_transmitting_neighbors_collide(self):
        positions = np.array([[0.0, 0], [1.0, 0], [2.0, 0]])
        channel = GraphChannel(positions, radius=1.0)
        deliveries = channel.resolve([Transmission(0, "a"), Transmission(2, "b")])
        assert all(d.receiver != 1 for d in deliveries)

    def test_non_neighbor_does_not_interfere(self):
        # the defining difference from SINR: a transmitter just beyond the
        # radius is *completely* harmless in the graph model
        positions = np.array([[0.0, 0], [1.0, 0], [2.01, 0], [3.0, 0]])
        channel = GraphChannel(positions, radius=1.0)
        deliveries = channel.resolve([Transmission(0, "a"), Transmission(2, "b")])
        receivers = {(d.receiver, d.sender) for d in deliveries}
        assert (1, 0) in receivers  # node 2 is out of node 1's radius

    def test_half_duplex(self):
        positions = np.array([[0.0, 0], [0.5, 0]])
        channel = GraphChannel(positions, radius=1.0)
        deliveries = channel.resolve([Transmission(0, "a"), Transmission(1, "b")])
        assert deliveries == []

    def test_out_of_range_silent(self):
        channel = GraphChannel(np.array([[0.0, 0], [5.0, 0]]), radius=1.0)
        assert channel.resolve([Transmission(0, "x")]) == []

    def test_radius_validation(self):
        with pytest.raises(ConfigurationError):
            GraphChannel(np.zeros((1, 2)), radius=-1.0)

    def test_empty(self):
        channel = GraphChannel(np.zeros((1, 2)), radius=1.0)
        assert channel.resolve([]) == []


class TestCollisionFreeChannel:
    def test_everyone_in_range_hears(self):
        positions = np.array([[0.0, 0], [0.5, 0], [0.9, 0]])
        channel = CollisionFreeChannel(positions, radius=1.0)
        deliveries = channel.resolve([Transmission(0, "x")])
        assert sorted(d.receiver for d in deliveries) == [1, 2]

    def test_nearest_sender_wins(self):
        positions = np.array([[0.0, 0], [1.0, 0], [1.6, 0]])
        channel = CollisionFreeChannel(positions, radius=1.0)
        deliveries = channel.resolve([Transmission(0, "a"), Transmission(2, "b")])
        by_receiver = {d.receiver: d.sender for d in deliveries}
        assert by_receiver[1] == 2  # distance 0.6 beats distance 1.0

    def test_half_duplex(self):
        positions = np.array([[0.0, 0], [0.5, 0]])
        channel = CollisionFreeChannel(positions, radius=1.0)
        deliveries = channel.resolve([Transmission(0, "a"), Transmission(1, "b")])
        assert deliveries == []

    def test_full_duplex_cross_delivery(self):
        positions = np.array([[0.0, 0], [0.5, 0]])
        channel = CollisionFreeChannel(positions, radius=1.0, half_duplex=False)
        deliveries = channel.resolve([Transmission(0, "a"), Transmission(1, "b")])
        assert sorted((d.receiver, d.payload) for d in deliveries) == [
            (0, "b"),
            (1, "a"),
        ]


class TestGraphChannelMatchesTheGraph:
    def test_pair_at_exactly_the_radius_across_a_cell_boundary(self):
        # x = -5e-18 and x = 0.1 are exactly 0.1 apart; a grid of side 0.1
        # puts them two cells apart, the graph's own pair kernel does not
        from repro.graphs.udg import UnitDiskGraph

        positions = np.array([[-5e-18, 0.0], [0.1, 0.0]])
        assert UnitDiskGraph(positions, 0.1).edge_count == 1
        channel = GraphChannel(positions, radius=0.1)
        deliveries = channel.resolve([Transmission(0, "x")])
        assert [(d.receiver, d.sender) for d in deliveries] == [(1, 0)]
