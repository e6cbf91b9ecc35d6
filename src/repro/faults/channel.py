"""Executable fault injection: a channel wrapper applying a :class:`FaultPlan`.

:class:`FaultyChannel` wraps any :class:`~repro.sinr.channel.Channel` and
realises the plan's channel-level faults around the wrapped resolution —
algorithms, simulators and telemetry all keep seeing an ordinary channel.
Per-slot fault state (outage windows, jammer duty cycles, slot skew) is a
pure function of the slot number, delivered by the simulator through the
:meth:`begin_slot` hook; when the wrapper is driven standalone it
self-clocks one slot per ``resolve`` call.

Determinism contract: fault randomness comes from one private generator
(plan seed, else the wrapper seed) and a plan with no channel faults
performs *zero* RNG draws and no delivery rewriting — wrapping with an
empty plan is bit-identical to the bare channel (locked by regression
tests).  The message-drop path is the repository's one loss path:
EXP-11's Bernoulli loss is a drop-only plan, and its draw pattern is
the one the committed EXP-11 rows were recorded with.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .._validation import require_int
from ..errors import ConfigurationError
from ..simulation.rng import rng_from_seed
from ..sinr.channel import Channel, Delivery, Transmission
from .plan import FaultPlan, NodeOutage, SlotSkew

__all__ = ["FaultEvents", "FaultyChannel"]


@dataclass
class FaultEvents:
    """Running counts of every fault the wrapper injected.

    Attributes
    ----------
    suppressed_transmissions:
        Transmissions removed because the sender was down (its
        interference disappears with it).
    desynced_deliveries:
        Deliveries voided because the sender was slot-skewed (energy on
        the air, preamble undecodable).
    down_receiver_losses:
        Deliveries removed because the receiver's radio was down.
    jammed:
        Deliveries destroyed by external jammer power at the receiver.
    dropped:
        Deliveries lost to the i.i.d. message-drop coin.
    corrupted:
        Deliveries discarded at the receiver after failing their
        checksum (the corruption coin).
    passed:
        Deliveries that survived every fault stage.
    """

    suppressed_transmissions: int = 0
    desynced_deliveries: int = 0
    down_receiver_losses: int = 0
    jammed: int = 0
    dropped: int = 0
    corrupted: int = 0
    passed: int = 0

    @property
    def injected(self) -> int:
        """Total deliveries/transmissions destroyed by any fault."""
        return (
            self.suppressed_transmissions
            + self.desynced_deliveries
            + self.down_receiver_losses
            + self.jammed
            + self.dropped
            + self.corrupted
        )

    def as_dict(self) -> dict[str, int]:
        """All counters as a plain dict (telemetry / result reporting)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultyChannel(Channel):
    """Wrap ``inner`` and inject the faults described by ``plan``.

    Per-slot resolution applies, in order: sender outages (before the
    wrapped resolve — a down radio contributes no interference), the
    wrapped channel's own semantics, slot-skew voiding, receiver
    outages, jammer destruction, and finally the message drop and
    corruption coins.  ``seed`` drives the private fault RNG unless the
    plan carries its own.
    """

    def __init__(self, inner: Channel, plan: FaultPlan, seed: int = 0) -> None:
        super().__init__(inner.positions, inner.half_duplex)
        if not isinstance(plan, FaultPlan):
            raise ConfigurationError(
                f"plan must be a FaultPlan, got {plan!r}"
            )
        if plan.max_node() >= inner.n:
            raise ConfigurationError(
                f"fault plan references node {plan.max_node()} but the "
                f"channel has only {inner.n} nodes"
            )
        self._inner = inner
        self._plan = plan
        use_seed = plan.seed if plan.seed is not None else seed
        require_int("seed", use_seed)
        self._rng = rng_from_seed(use_seed)
        self._events = FaultEvents()
        self._outages = _by_node(plan.outages)
        self._skews = _by_node(plan.skews)
        self._jam_power, self._jam_threshold = _jam_table(inner, plan)
        self._slot = 0
        self._external_clock = False
        self._inner_hook = getattr(inner, "begin_slot", None)
        self._passthrough = not plan.has_channel_faults
        self._m_dropped = None
        self._m_faults: dict[str, object] = {}

    # -- accessors ---------------------------------------------------------

    @property
    def inner(self) -> Channel:
        """The wrapped channel."""
        return self._inner

    @property
    def plan(self) -> FaultPlan:
        """The fault plan this wrapper realises."""
        return self._plan

    @property
    def events(self) -> FaultEvents:
        """Running fault counters for this wrapper."""
        return self._events

    @property
    def reach(self) -> float:
        """The wrapped channel's reach."""
        return self._inner.reach

    @property
    def slot(self) -> int:
        """The slot the next resolution is attributed to."""
        return self._slot

    # -- clocking ----------------------------------------------------------

    def begin_slot(self, slot: int) -> None:
        """Pin the wrapper's fault clock to ``slot``.

        Simulators call this at the top of every executed slot so outage
        windows, jammer duty cycles and skew phases track real slot
        numbers even when silent slots never reach ``resolve``.  Forwards
        to the wrapped channel when it exposes the hook too (stacked
        wrappers).
        """
        require_int("slot", slot, minimum=0)
        self._slot = slot
        self._external_clock = True
        if self._inner_hook is not None:
            self._inner_hook(slot)

    # -- fault predicates --------------------------------------------------

    def node_down(self, node: int, slot: int) -> bool:
        """Whether ``node``'s radio is down at ``slot`` under this plan."""
        windows = self._outages.get(node)
        return windows is not None and any(o.down(slot) for o in windows)

    def _desynced(self, node: int, slot: int) -> bool:
        skews = self._skews.get(node)
        return skews is not None and any(s.desynced(slot) for s in skews)

    def _jam_field(self, slot: int) -> np.ndarray | None:
        """Total received jamming power per node, or None when all quiet."""
        assert self._jam_power is not None
        active = [
            row
            for jammer, row in zip(self._plan.jammers, self._jam_power)
            if jammer.active(slot)
        ]
        if not active:
            return None
        total = active[0].copy()
        for row in active[1:]:
            total += row
        return total

    # -- telemetry ---------------------------------------------------------

    def attach_metrics(self, metrics) -> None:
        """Instrument the wrapper and the wrapped channel's engine.

        The inner channel's ``resolve`` wrapper is deliberately *not*
        instrumented — the faulty resolve time includes it, and stacking
        both would double-count into ``channel.resolve_seconds``.
        """
        super().attach_metrics(metrics)
        if not getattr(metrics, "enabled", True):
            return
        self._m_dropped = metrics.counter("channel.dropped_deliveries")
        self._m_faults = {
            "suppressed_transmissions": metrics.counter(
                "faults.suppressed_transmissions"
            ),
            "desynced_deliveries": metrics.counter("faults.desynced_deliveries"),
            "down_receiver_losses": metrics.counter("faults.down_receiver_losses"),
            "jammed": metrics.counter("faults.jammed"),
            "corrupted": metrics.counter("faults.corrupted"),
        }
        inner_engine = self._inner.engine
        if inner_engine is not None:
            inner_engine.attach_metrics(metrics)

    def _count(self, name: str, amount: int) -> None:
        setattr(self._events, name, getattr(self._events, name) + amount)
        counter = self._m_faults.get(name)
        if counter is not None and amount:
            counter.inc(amount)  # type: ignore[attr-defined]

    # -- resolution --------------------------------------------------------

    def _resolve(self, transmissions: Sequence[Transmission]) -> list[Delivery]:
        slot = self._slot
        if not self._external_clock:
            self._slot = slot + 1

        if self._passthrough:
            deliveries = self._inner.resolve(transmissions)
            self._events.passed += len(deliveries)
            return deliveries

        if self._outages:
            kept_tx = [
                t for t in transmissions if not self.node_down(t.sender, slot)
            ]
            self._count(
                "suppressed_transmissions", len(transmissions) - len(kept_tx)
            )
            transmissions = kept_tx

        deliveries = self._inner.resolve(transmissions)

        if self._skews and deliveries:
            kept = [d for d in deliveries if not self._desynced(d.sender, slot)]
            self._count("desynced_deliveries", len(deliveries) - len(kept))
            deliveries = kept

        if self._outages and deliveries:
            kept = [d for d in deliveries if not self.node_down(d.receiver, slot)]
            self._count("down_receiver_losses", len(deliveries) - len(kept))
            deliveries = kept

        if self._jam_power is not None and deliveries:
            field_ = self._jam_field(slot)
            if field_ is not None:
                kept = [
                    d
                    for d in deliveries
                    if field_[d.receiver] < self._jam_threshold
                ]
                self._count("jammed", len(deliveries) - len(kept))
                deliveries = kept

        deliveries = self._message_faults(deliveries)
        self._events.passed += len(deliveries)
        return deliveries

    def _message_faults(self, deliveries: list[Delivery]) -> list[Delivery]:
        """The drop and corruption coins (one uniform draw per delivery each)."""
        messages = self._plan.messages
        if not deliveries or messages.empty:
            return deliveries
        if messages.drop > 0.0:
            keep = self._rng.random(len(deliveries)) >= messages.drop
            kept = [d for d, ok in zip(deliveries, keep) if ok]
            dropped = len(deliveries) - len(kept)
            self._events.dropped += dropped
            if self._m_dropped is not None and dropped:
                self._m_dropped.inc(dropped)
            deliveries = kept
        if messages.corrupt > 0.0 and deliveries:
            keep = self._rng.random(len(deliveries)) >= messages.corrupt
            kept = [d for d, ok in zip(deliveries, keep) if ok]
            self._count("corrupted", len(deliveries) - len(kept))
            deliveries = kept
        return deliveries


def _by_node(items: Sequence[NodeOutage] | Sequence[SlotSkew]) -> dict:
    table: dict[int, tuple] = {}
    for item in items:
        table[item.node] = table.get(item.node, ()) + (item,)
    return table


def _jam_table(
    inner: Channel, plan: FaultPlan
) -> tuple[np.ndarray | None, float]:
    """Per-(jammer, node) received-power table and the kill threshold.

    Received power follows the same far-field path-loss law as the SINR
    channel, clamped by a near-field floor so a jammer placed exactly on
    a node stays finite (and certainly above any sane threshold).
    """
    if not plan.jammers:
        return None, 0.0
    threshold = plan.fallback_threshold(getattr(inner, "params", None))
    positions = inner.positions
    floor = max(inner.reach, 1.0) * 1e-6
    rows = []
    for jammer in plan.jammers:
        diff = positions - np.asarray([jammer.x, jammer.y], dtype=np.float64)
        dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        dist = np.maximum(dist, floor)
        rows.append(jammer.power / dist**jammer.alpha)
    return np.vstack(rows), threshold
