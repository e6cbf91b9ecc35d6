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
from typing import Callable, Sequence

import numpy as np

from .._validation import require_int
from ..errors import ConfigurationError
from ..simulation.rng import rng_from_seed
from ..sinr.channel import Channel
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

    @staticmethod
    def _flags(
        predicate: Callable[[int, int], bool], nodes: np.ndarray, slot: int
    ) -> np.ndarray:
        """``predicate(node, slot)`` for each entry of ``nodes``, as a mask.

        Asks only about the nodes present, so a plan listing many nodes
        costs per slot what the senders and deliveries cost, not ``n``.
        """
        return np.fromiter(
            (predicate(node, slot) for node in nodes.tolist()),
            dtype=bool,
            count=nodes.size,
        )

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

        The inner channel's ``resolve`` is never called — the wrapper
        asks its ``_reception`` directly — so ``channel.resolve_seconds``
        counts each slot once.
        """
        super().attach_metrics(metrics)
        if not getattr(metrics, "enabled", True):
            return
        self._m_faults = {
            "dropped": metrics.counter("channel.dropped_deliveries"),
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

    def _reception(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The wrapped reception with the plan's faults applied as masks.

        Each stage keeps a boolean mask over the surviving deliveries;
        the coins draw one uniform per delivery still alive when their
        stage runs, so the draw pattern is the plan's, not the layout's.
        """
        slot = self._slot
        if not self._external_clock:
            self._slot = slot + 1

        if self._passthrough:
            receivers, columns = self._inner._reception(senders)
            self._events.passed += len(receivers)
            return receivers, columns

        if self._outages and senders.size:
            live = np.flatnonzero(~self._flags(self.node_down, senders, slot))
            self._count("suppressed_transmissions", senders.size - live.size)
            receivers, inner_columns = self._inner._reception(senders[live])
            columns = live[inner_columns]
        else:
            receivers, columns = self._inner._reception(senders)

        if self._skews and receivers.size:
            desynced = self._flags(self._desynced, senders, slot)
            receivers, columns = self._keep(
                "desynced_deliveries", ~desynced[columns], receivers, columns
            )

        if self._outages and receivers.size:
            down = self._flags(self.node_down, receivers, slot)
            receivers, columns = self._keep(
                "down_receiver_losses", ~down, receivers, columns
            )

        if self._jam_power is not None and receivers.size:
            field_ = self._jam_field(slot)
            if field_ is not None:
                receivers, columns = self._keep(
                    "jammed",
                    field_[receivers] < self._jam_threshold,
                    receivers,
                    columns,
                )

        messages = self._plan.messages
        coins = (("dropped", messages.drop), ("corrupted", messages.corrupt))
        for stage, rate in coins:
            if rate > 0.0 and receivers.size:
                keep = self._rng.random(receivers.size) >= rate
                receivers, columns = self._keep(stage, keep, receivers, columns)
        self._events.passed += len(receivers)
        return receivers, columns

    def _keep(
        self,
        stage: str,
        keep: np.ndarray,
        receivers: np.ndarray,
        columns: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Filter the deliveries by ``keep`` and count the losses under ``stage``."""
        kept = receivers[keep]
        self._count(stage, receivers.size - kept.size)
        return kept, columns[keep]


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
