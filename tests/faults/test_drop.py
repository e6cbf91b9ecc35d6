"""I.i.d. message loss: a FaultyChannel with a drop-only fault plan."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultyChannel, MessageFaults
from repro.sinr.channel import CollisionFreeChannel, Transmission


def make_pair():
    positions = np.array([[0.0, 0.0], [0.5, 0.0]])
    return CollisionFreeChannel(positions, radius=1.0)


def dropping(inner, drop, seed=0):
    return FaultyChannel(
        inner, FaultPlan(messages=MessageFaults(drop=drop)), seed=seed
    )


class TestDropOnlyPlan:
    def test_zero_drop_is_transparent(self):
        channel = dropping(make_pair(), drop=0.0)
        deliveries = channel.resolve([Transmission(0, "x")])
        assert len(deliveries) == 1
        assert channel.events.dropped == 0
        assert channel.events.passed == 1

    def test_full_drop_kills_everything(self):
        channel = dropping(make_pair(), drop=1.0)
        assert channel.resolve([Transmission(0, "x")]) == []
        assert channel.events.dropped == 1

    def test_drop_rate_statistical(self):
        channel = dropping(make_pair(), drop=0.3, seed=5)
        for _ in range(2000):
            channel.resolve([Transmission(0, "x")])
        events = channel.events
        rate = events.dropped / (events.dropped + events.passed)
        assert abs(rate - 0.3) < 0.05

    def test_deterministic_per_seed(self):
        a = dropping(make_pair(), drop=0.5, seed=9)
        b = dropping(make_pair(), drop=0.5, seed=9)
        for _ in range(100):
            ra = a.resolve([Transmission(0, "x")])
            rb = b.resolve([Transmission(0, "x")])
            assert len(ra) == len(rb)

    def test_reach_and_positions_forwarded(self):
        inner = make_pair()
        channel = dropping(inner, drop=0.2)
        assert channel.reach == inner.reach
        assert channel.n == inner.n
        assert channel.inner is inner

    def test_invalid_drop_rejected(self):
        with pytest.raises(ConfigurationError):
            dropping(make_pair(), drop=1.5)


class TestMWUnderLoss:
    def test_protocol_survives_heavy_loss(self, params):
        # the MW algorithm is retransmission-based: 25% extra random loss
        # must not break termination, properness or independence
        from repro import uniform_deployment
        from repro.coloring.runner import run_mw_coloring

        dep = uniform_deployment(50, 5.0, seed=2)
        plan = FaultPlan(messages=MessageFaults(drop=0.25), seed=1)
        result = run_mw_coloring(
            dep, params, seed=4, faults=plan
        )
        assert result.stats.completed
        assert result.is_proper()
        assert not result.audit_violations
        assert result.fault_events["dropped"] > 0  # the loss actually happened
