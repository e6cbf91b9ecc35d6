"""The slotted simulation engine: event-driven execution of random-access protocols.

The paper's model is one slotted radio with asynchronous wake-up
(Section II).  A node's per-slot behaviour in the protocols here is
(a) transmit with some probability ``p`` and (b) counters that advance by
exactly one per slot.  Both admit an *event-driven* execution that is
statistically identical to calling every node every slot:

* Coin flips with success probability ``p`` are replaced by sampling the
  gap to the next success from the geometric distribution — silent slots
  cost nothing.
* Deterministic per-slot counters are stored as ``(base, base_slot)`` pairs
  and evaluated lazily; threshold crossings become timers at the exact
  crossing slot.

The engine therefore processes only *active* slots (some node transmits,
a timer fires, or a node wakes).  Within an active slot, timers fire
first, then due transmissions are collected, the channel resolves them,
and receptions are dispatched — all within the same slot number.  The
slot path stays on arrays: senders go to :meth:`Channel.resolve` as an
index array beside their payloads, receptions come back as receiver and
column arrays, and ``Transmission``/``Delivery`` objects are built only
for end-of-slot observers.

Nodes implement :class:`EventNode` and drive their own schedule through
:class:`EventApi` (``set_rate`` / ``set_timer``); ``run`` returns a
:class:`RunStats` with the slot counts experiments report.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Sequence

import numpy as np

from .._validation import require_int
from ..errors import SimulationError
from ..sinr.channel import Channel, Deliveries, Transmission
from .rng import spawn_generators
from .scheduler import WakeupSchedule
from .trace import SlotObserver

__all__ = ["EventApi", "EventNode", "EventSimulator", "RunStats"]


@dataclass(frozen=True)
class RunStats:
    """Outcome of a simulation run.

    Attributes
    ----------
    slots_run:
        Total number of slots executed.
    completed:
        Whether the stop condition fired (False means max_slots was hit).
    decided_count:
        How many nodes had decided when the run ended.
    transmissions:
        Total transmissions over the run.
    deliveries:
        Total successful receptions over the run.
    """

    slots_run: int
    completed: bool
    decided_count: int
    transmissions: int
    deliveries: int

    @property
    def delivery_rate(self) -> float:
        """Fraction of transmissions that produced at least the counted deliveries.

        Note one broadcast can reach several receivers, so this can
        exceed 1; it is a throughput indicator, not a probability.
        """
        if self.transmissions == 0:
            return 0.0
        return self.deliveries / self.transmissions


class EventNode(ABC):
    """Protocol state machine for the event-driven engine.

    Contract: all scheduling goes through the :class:`EventApi` handed to
    each callback — ``api.set_rate(p)`` for the node's current transmission
    probability per slot, ``api.set_timer(slot)`` for the node's (single)
    deterministic transition.  Both may be called from any callback.
    """

    @abstractmethod
    def on_wake(self, api: "EventApi") -> None:
        """Called once at the node's wake-up slot."""

    @abstractmethod
    def make_payload(self, api: "EventApi") -> Any | None:
        """Called when a sampled transmission slot arrives.

        Returns the payload to broadcast this slot, or None to stay silent
        (the next transmission slot is resampled either way).
        """

    def on_timer(self, api: "EventApi") -> None:
        """Called when the slot passed to ``set_timer`` arrives."""

    def on_receive(self, api: "EventApi", sender: int, payload: Any) -> None:
        """Called for each message decoded this slot (after transmissions)."""

    @property
    def decided(self) -> bool:
        """Whether this node has produced its final output."""
        return False


_KIND_WAKE = 0
_KIND_TIMER = 1
_KIND_TX = 2

#: Senders/receivers/columns of a slot in which nobody transmitted.
_NOBODY = np.empty(0, dtype=np.intp)


@dataclass
class EventApi:
    """Per-node handle for scheduling and randomness (see :class:`EventNode`)."""

    node: int
    rng: np.random.Generator
    _simulator: "EventSimulator"
    slot: int = 0

    def flip(self, probability: float) -> bool:
        """A biased coin (occasionally useful inside callbacks)."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return bool(self.rng.random() < probability)

    def set_rate(self, probability: float) -> None:
        """Set this node's per-slot transmission probability from now on.

        The next transmission slot is resampled immediately; 0 disables
        transmissions.
        """
        self._simulator._set_rate(self.node, probability, self.slot, self.rng)

    def set_timer(self, slot: int) -> None:
        """Arm this node's timer to fire at ``slot`` (replaces any previous)."""
        self._simulator._set_timer(self.node, slot)

    def cancel_timer(self) -> None:
        """Disarm this node's timer."""
        self._simulator._set_timer(self.node, None)


class EventSimulator:
    """Event-driven execution of :class:`EventNode` processes over a channel."""

    def __init__(
        self,
        channel: Channel,
        nodes: Sequence[EventNode],
        schedule: WakeupSchedule,
        seed: int = 0,
        observers: Sequence[SlotObserver] = (),
        metrics=None,
        profiler=None,
    ) -> None:
        if len(nodes) != channel.n:
            raise SimulationError(
                f"{len(nodes)} node processes for a channel with {channel.n} nodes"
            )
        if len(schedule) != channel.n:
            raise SimulationError(
                f"wake-up schedule covers {len(schedule)} nodes, channel has {channel.n}"
            )
        self._channel = channel
        # Fault-aware channels pin their per-slot fault state (outage
        # windows, jammer duty cycles) to real slot numbers through this
        # hook; plain channels don't expose it and pay nothing.
        self._slot_hook = getattr(channel, "begin_slot", None)
        self._nodes = list(nodes)
        self._schedule = schedule
        self._observers = list(observers)
        self._generators = spawn_generators(seed, len(nodes))
        self._apis = [
            EventApi(node=i, rng=self._generators[i], _simulator=self)
            for i in range(len(nodes))
        ]
        self._heap: list[tuple[int, int, int]] = []  # (slot, kind, node)
        self._awake = np.zeros(len(nodes), dtype=bool)
        self._asleep = len(nodes)
        self._rate = np.zeros(len(nodes), dtype=np.float64)
        self._next_tx = np.full(len(nodes), -1, dtype=np.int64)
        self._next_timer = np.full(len(nodes), -1, dtype=np.int64)
        self._slot = 0
        self._transmission_count = 0
        self._delivery_count = 0
        # Telemetry is read-only over the run (no RNG, no node state) —
        # attaching it cannot change the outcome; see the determinism test.
        self._profiler = profiler
        self._m_slots = None
        self._m_transmissions = None
        self._m_deliveries = None
        if metrics is not None and getattr(metrics, "enabled", True):
            self._m_slots = metrics.counter("sim.slots")
            self._m_transmissions = metrics.counter("sim.transmissions")
            self._m_deliveries = metrics.counter("sim.deliveries")
        for node in range(len(nodes)):
            heapq.heappush(
                self._heap, (schedule.wake_slot(node), _KIND_WAKE, node)
            )

    # -- accessors -----------------------------------------------------------

    @property
    def slot(self) -> int:
        """Slot number of the most recently processed (or next) event."""
        return self._slot

    @property
    def channel(self) -> Channel:
        """The channel transmissions are resolved on."""
        return self._channel

    @property
    def nodes(self) -> list[EventNode]:
        """The node processes (index == node id)."""
        return self._nodes

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._nodes)

    def decided_count(self) -> int:
        """Number of nodes whose process reports ``decided``."""
        return sum(1 for node in self._nodes if node.decided)

    def all_decided(self) -> bool:
        """Whether every node process reports ``decided``."""
        return all(node.decided for node in self._nodes)

    # -- scheduling internals ----------------------------------------------------

    def _set_rate(
        self, node: int, probability: float, slot: int, rng: np.random.Generator
    ) -> None:
        if not 0.0 <= probability <= 1.0:
            raise SimulationError(
                f"transmission probability must be in [0, 1], got {probability}"
            )
        self._rate[node] = probability
        if probability <= 0.0:
            self._next_tx[node] = -1
            return
        # Gap to the next success of a per-slot Bernoulli(p): geometric >= 1.
        gap = int(rng.geometric(probability))
        self._next_tx[node] = slot + gap
        heapq.heappush(self._heap, (slot + gap, _KIND_TX, node))

    def _resample_tx(self, node: int, slot: int) -> None:
        probability = float(self._rate[node])
        if probability <= 0.0:
            self._next_tx[node] = -1
            return
        gap = int(self._generators[node].geometric(probability))
        self._next_tx[node] = slot + gap
        heapq.heappush(self._heap, (slot + gap, _KIND_TX, node))

    def _set_timer(self, node: int, slot: int | None) -> None:
        if slot is None:
            self._next_timer[node] = -1
            return
        if slot < self._slot:
            raise SimulationError(
                f"node {node} tried to arm a timer in the past "
                f"({slot} < current slot {self._slot})"
            )
        self._next_timer[node] = slot
        heapq.heappush(self._heap, (slot, _KIND_TIMER, node))

    # -- execution ------------------------------------------------------------------

    def run(
        self,
        max_slots: int,
        stop: Callable[["EventSimulator"], bool] | None = None,
    ) -> RunStats:
        """Run until ``stop(self)`` holds or the next event exceeds ``max_slots``.

        ``stop`` defaults to "every node awake and decided" and is evaluated
        after each processed slot (decisions only change on active slots).
        """
        require_int("max_slots", max_slots, minimum=0)
        if stop is None:
            last_wake = self._schedule.last_wake

            def stop(sim: "EventSimulator") -> bool:
                return sim.slot >= last_wake and sim.all_decided()

        completed = stop(self) if not self._heap else False
        while self._heap and not completed:
            slot = self._heap[0][0]
            if slot >= max_slots:
                break
            self._slot = slot
            self._process_slot(slot)
            completed = stop(self)
        if completed:
            slots_run = self._slot + 1
        else:
            slots_run = max_slots
            self._slot = max_slots
        return RunStats(
            slots_run=slots_run,
            completed=completed,
            decided_count=self.decided_count(),
            transmissions=self._transmission_count,
            deliveries=self._delivery_count,
        )

    def _process_slot(self, slot: int) -> None:
        if self._slot_hook is not None:
            self._slot_hook(slot)
        profiler = self._profiler
        t0 = perf_counter() if profiler is not None else 0.0  # repro: noqa[DET001] profiler timing; never a decision input
        wakes: list[int] = []
        timers: list[int] = []
        tx_candidates: list[int] = []
        while self._heap and self._heap[0][0] == slot:
            _, kind, node = heapq.heappop(self._heap)
            if kind == _KIND_WAKE:
                wakes.append(node)
            elif kind == _KIND_TIMER:
                if self._next_timer[node] == slot:  # not cancelled/replaced
                    timers.append(node)
            else:
                if self._next_tx[node] == slot:  # not invalidated by set_rate
                    tx_candidates.append(node)

        for node in wakes:
            self._awake[node] = True
            self._asleep -= 1
            self._nodes[node].on_wake(self._api(node, slot))
        for node in timers:
            if self._next_timer[node] == slot:  # still armed for this slot
                self._next_timer[node] = -1
                self._nodes[node].on_timer(self._api(node, slot))

        nodes = self._nodes
        sender_list: list[int] = []
        payloads: list[Any] = []
        for node in tx_candidates:
            if self._next_tx[node] != slot:
                continue  # a timer callback changed this node's rate
            payload = nodes[node].make_payload(self._api(node, slot))
            self._resample_tx(node, slot)
            if payload is not None:
                sender_list.append(node)
                payloads.append(payload)

        t1 = perf_counter() if profiler is not None else 0.0  # repro: noqa[DET001] profiler timing; never a decision input
        resolve_s = 0.0
        receivers = columns = senders = _NOBODY
        if sender_list:
            senders = np.array(sender_list, dtype=np.intp)
            result = self._channel.resolve(senders, payloads)
            if profiler is not None:
                resolve_s = perf_counter() - t1  # repro: noqa[DET001] profiler timing; never a decision input
            receivers, columns = result.receivers, result.columns
            if self._asleep:
                # Sleeping radios are off: deliveries to not-yet-woken nodes
                # are dropped (the paper's nodes wake spontaneously, never by
                # message).
                awake = self._awake[receivers]
                receivers, columns = receivers[awake], columns[awake]
            apis = self._apis
            for receiver, column in zip(receivers.tolist(), columns.tolist()):
                api = apis[receiver]
                api.slot = slot
                nodes[receiver].on_receive(
                    api, sender_list[column], payloads[column]
                )
        delivered = len(receivers)
        t2 = perf_counter() if profiler is not None else 0.0  # repro: noqa[DET001] profiler timing; never a decision input
        if self._observers:
            transmissions = [
                Transmission(sender, payload)
                for sender, payload in zip(sender_list, payloads)
            ]
            deliveries = list(Deliveries(receivers, columns, senders, payloads))
            for observer in self._observers:
                observer.on_slot_end(slot, transmissions, deliveries)
        if profiler is not None:
            t3 = perf_counter()  # repro: noqa[DET001] profiler timing; never a decision input
            profiler.record_slot(
                slot,
                node_s=(t1 - t0) + (t2 - t1 - resolve_s),
                resolve_s=resolve_s,
                observer_s=t3 - t2,
                transmissions=len(sender_list),
                deliveries=delivered,
            )
        if self._m_slots is not None:
            self._m_slots.inc()
            self._m_transmissions.inc(len(sender_list))
            self._m_deliveries.inc(delivered)
        self._transmission_count += len(sender_list)
        self._delivery_count += delivered

    def _api(self, node: int, slot: int) -> EventApi:
        api = self._apis[node]
        api.slot = slot
        return api
