"""The MW coloring node state machine (Figures 1, 2, 3 of the paper).

Each node cycles through three state classes:

* ``A_i`` (Fig. 1) — competing for color ``i``.  A fresh ``A_i`` starts with
  a *listening phase* of ``ceil(eta * Delta * ln n)`` slots during which the
  node silently tracks the counters of competitors (set ``P_v``), then picks
  a starting counter ``c_v = chi(P_v) <= 0`` outside every competitor's
  forbidden window, and enters the *competition loop*: the counter ticks up
  by one each slot, ``M_A^i(v, c_v)`` is transmitted with probability
  ``q_s``, the counter resets to ``chi(P_v)`` whenever a competitor's
  counter comes within the reset window (Fig. 1 line 15), and the node
  claims color ``i`` on reaching ``ceil(sigma * Delta * ln n)`` (line 10).
* ``C_i`` (Fig. 2) — holding color ``i``.  Holders with ``i > 0`` repeat
  ``M_C^i(v)`` with probability ``q_s``.  Leaders (``i = 0``) serve cluster
  color requests: each queued requester gets a distinct ``tc`` announced
  via targeted ``M_C^0(v, w, tc)`` grants for ``ceil(mu * ln n)`` slots with
  probability ``q_l``; with an empty queue they advertise ``M_C^0(v)``.
* ``R`` (Fig. 3) — clustered, requesting a cluster color: repeat
  ``M_R(v, L(v))`` with probability ``q_s`` until the leader's grant
  arrives, then start competing in state ``A_{tc * (phi(2R_T) + 1)}``.

Transitions ``A_i -> R`` (``i = 0``) and ``A_i -> A_{i+1}`` (``i > 0``)
happen on hearing any ``M_C^i`` from a neighbor (Fig. 1 lines 5 and 12).

**Lazy counters.**  The implementation targets the event-driven engine
(:class:`~repro.simulation.event_sim.EventSimulator`): instead of being
incremented every slot, the node's counter is stored as ``(base,
base_slot)`` with value ``base + (slot - base_slot)``, and each tracked
competitor copy ``d_v(w)`` as ``(value, record_slot)`` with value
``value + (slot - record_slot)``.  Both advance by exactly one per slot,
so this representation is *exactly* Fig. 1 lines 3/8/9 — merely evaluated
on demand.  Threshold crossings and listening-phase ends become timers at
the precomputed slot.

Three deliberate, documented deviations from the pseudocode (all invisible
to the analysis, which is w.h.p. over message deliveries):

1. When a node's counter reaches the threshold it joins ``C_i``
   immediately and does not also transmit ``M_A^i`` in that slot.
2. A leader remembers the ``tc`` it assigned to each requester; if a grant
   is lost (possible at simulation-scale constants) and the requester asks
   again, the leader re-serves the *same* ``tc`` instead of burning a new
   one, preserving the "distinct tc per cluster member" invariant that
   Theorem 2's palette bound rests on.
3. ``chi(P_v)`` evaluates the forbidden windows against the *current*
   (lazily advanced) copies — identical to the pseudocode, stated here
   because the lazy representation makes it easy to get wrong.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import ProtocolError
from ..simulation.event_sim import EventApi, EventNode
from ..simulation.trace import TraceRecorder
from .constants import AlgorithmConstants
from .messages import MsgA, MsgC, MsgR

__all__ = ["MWColoringNode", "MWSharedConfig", "chi"]

# State-class tags.
STATE_A = "A"
STATE_R = "R"
STATE_C = "C"

# Phases within state class A.
PHASE_LISTEN = "listen"
PHASE_COMPETE = "compete"


def chi(counters: dict[int, int], window: int) -> int:
    """The restart value ``chi(P_v)`` of Fig. 1 line 6.

    The maximum integer ``x <= 0`` such that ``x`` lies outside the closed
    window ``[d_v(w) - window, d_v(w) + window]`` for every tracked
    competitor counter ``d_v(w)``.
    """
    if window < 0:
        raise ProtocolError(f"reset window must be >= 0, got {window}")
    candidate = 0
    intervals = [(d - window, d + window) for d in counters.values()]
    # Each pass either returns or jumps below at least one interval, so this
    # terminates after at most len(intervals) + 1 passes.
    for _ in range(len(intervals) + 1):
        blocking_lows = [low for low, high in intervals if low <= candidate <= high]
        if not blocking_lows:
            return candidate
        candidate = min(blocking_lows) - 1
    raise ProtocolError("chi computation failed to converge")  # pragma: no cover


@dataclass(frozen=True)
class MWSharedConfig:
    """Static knowledge shared by every node (the paper assumes n and Delta known).

    ``decision_listeners`` are called as ``listener(slot, node, color)`` the
    moment any node enters a ``C_i`` — the hook the live independence audit
    (Theorem 1) attaches to.
    """

    constants: AlgorithmConstants
    trace: TraceRecorder | None = None
    decision_listeners: tuple[Callable[[int, int, int], None], ...] = ()

    @property
    def delta(self) -> int:
        """Maximum degree ``Delta`` the intervals are tuned for."""
        return self.constants.delta

    @property
    def n(self) -> int:
        """Network size the ``ln n`` factors are tuned for."""
        return self.constants.n


@dataclass
class MWColoringNode(EventNode):
    """One node running the MW algorithm.  See module docstring."""

    node_id: int
    config: MWSharedConfig

    # -- dynamic state (all private) --
    _state: str = field(default=STATE_A, init=False)
    _i: int = field(default=0, init=False)
    _phase: str = field(default=PHASE_LISTEN, init=False)
    _window: int = field(default=0, init=False)  # reset_window(_i), set in _enter_a
    _counter_base: int = field(default=0, init=False)
    _counter_slot: int = field(default=0, init=False)
    _records: dict[int, tuple[int, int]] = field(default_factory=dict, init=False)
    _leader: int | None = field(default=None, init=False)
    _granted_tc: int | None = field(default=None, init=False)
    _color: int | None = field(default=None, init=False)
    _color_slot: int | None = field(default=None, init=False)
    # leader-only bookkeeping
    _queue: deque = field(default_factory=deque, init=False)
    _queued: set = field(default_factory=set, init=False)
    _assigned: dict[int, int] = field(default_factory=dict, init=False)
    _next_tc: int = field(default=0, init=False)
    _serving: int | None = field(default=None, init=False)
    _awake: bool = field(default=False, init=False)

    # -- public inspection ---------------------------------------------------

    @property
    def state_class(self) -> str:
        """Current state class: ``"A"``, ``"R"`` or ``"C"``."""
        return self._state

    @property
    def state_index(self) -> int:
        """Current index ``i`` of ``A_i``/``C_i`` (unused in ``R``)."""
        return self._i

    @property
    def phase(self) -> str:
        """``"listen"`` or ``"compete"`` while in state class ``A``."""
        return self._phase

    def counter_at(self, slot: int) -> int:
        """The competition counter ``c_v`` as of ``slot`` (lazy evaluation)."""
        return self._counter_base + max(0, slot - self._counter_slot)

    def tracked_counters(self, slot: int) -> dict[int, int]:
        """The set ``P_v`` as of ``slot``: competitor -> advanced copy ``d_v(w)``."""
        return {
            w: value + (slot - rec_slot)
            for w, (value, rec_slot) in self._records.items()
        }

    @property
    def color(self) -> int | None:
        """Final color, or None while undecided."""
        return self._color

    @property
    def decision_slot(self) -> int | None:
        """Slot in which the node entered its ``C`` state, or None."""
        return self._color_slot

    @property
    def leader(self) -> int | None:
        """The leader ``L(v)`` this node clustered under, if any."""
        return self._leader

    @property
    def is_leader(self) -> bool:
        """Whether this node won color 0 (joined the independent set)."""
        return self._color == 0

    @property
    def decided(self) -> bool:
        """A node has decided once it entered any ``C_i``."""
        return self._color is not None

    @property
    def cluster_color(self) -> int | None:
        """The cluster color ``tc`` granted by the leader, if any."""
        return self._granted_tc

    # -- lifecycle ---------------------------------------------------------------

    def on_wake(self, api: EventApi) -> None:
        """Upon wake-up a node enters state ``A_0`` (Section III)."""
        self._awake = True
        self._enter_a(api, 0, start_slot=api.slot)

    def make_payload(self, api: EventApi) -> Any | None:
        if not self._awake:
            raise ProtocolError(f"node {self.node_id} transmitted before waking")
        if self._state == STATE_A:
            # Fig. 1 line 11 (only reachable in the competition phase).
            return MsgA(
                i=self._i, sender=self.node_id, counter=self.counter_at(api.slot)
            )
        if self._state == STATE_R:
            # Fig. 3 line 2.
            return MsgR(sender=self.node_id, leader=self._leader)
        if self._i > 0:
            # Fig. 2 line 3.
            return MsgC(i=self._i, sender=self.node_id)
        if self._serving is not None:
            # Fig. 2 line 13: targeted grant for the currently served request.
            return MsgC(
                i=0,
                sender=self.node_id,
                target=self._serving,
                tc=self._assigned[self._serving],
            )
        # Fig. 2 line 9: plain leader announcement.
        return MsgC(i=0, sender=self.node_id)

    def on_timer(self, api: EventApi) -> None:
        if self._state == STATE_A:
            if self._phase == PHASE_LISTEN:
                self._begin_competition(api)
            else:
                # Fig. 1 line 10: the counter reached the threshold this slot.
                self._enter_c(api)
            return
        if self._state == STATE_C and self._i == 0:
            # End of the current grant's serve period (Fig. 2 line 14).
            self._serving = None
            if self._queue:
                self._start_serving(api)
            return
        raise ProtocolError(
            f"node {self.node_id} got a timer in state {self._state}"
        )  # pragma: no cover

    def on_receive(self, api: EventApi, sender: int, payload: Any) -> None:
        if self._state == STATE_A:
            self._receive_in_a(api, payload)
        elif self._state == STATE_R:
            self._receive_in_r(api, payload)
        else:
            self._receive_in_c(api, payload)

    # -- state class A (Fig. 1) -----------------------------------------------------

    def _enter_a(self, api: EventApi, i: int, start_slot: int) -> None:
        """Initialise a fresh ``A_i`` (Fig. 1 header + line 2).

        ``start_slot`` is the first slot the node spends listening: the wake
        slot itself for ``on_wake``, the next slot when entering from a
        reception (which is processed at the end of its slot).
        """
        self._state = STATE_A
        self._i = i
        self._window = self.config.constants.reset_window(i)
        self._records = {}  # P_v := empty
        self._phase = PHASE_LISTEN
        api.set_rate(0.0)  # the listening phase never transmits
        # chi is evaluated in the last listening slot; competition ticks
        # begin in the following slot.
        api.set_timer(start_slot + self.config.constants.listen_slots - 1)
        self._trace(api.slot, "enter_A", i)

    def _begin_competition(self, api: EventApi) -> None:
        """Fig. 1 line 6: pick the starting counter, start the while loop."""
        constants = self.config.constants
        self._counter_base = chi(self.tracked_counters(api.slot), self._window)
        self._counter_slot = api.slot
        self._phase = PHASE_COMPETE
        api.set_rate(constants.q_s)
        api.set_timer(self._threshold_slot())
        self._trace(api.slot, "compete", self._counter_base)

    def _threshold_slot(self) -> int:
        """The exact slot at which ``c_v`` reaches the threshold (Fig. 1 l.10)."""
        return self._counter_slot + (
            self.config.constants.counter_threshold - self._counter_base
        )

    def _receive_in_a(self, api: EventApi, payload: Any) -> None:
        if isinstance(payload, MsgC) and payload.i == self._i:
            # Fig. 1 lines 5 / 12: a neighbor already holds color i.
            self._leader = payload.sender
            if self._i == 0:
                self._enter_r(api)  # A_suc = R
            else:
                self._enter_a(api, self._i + 1, start_slot=api.slot + 1)
            return
        if isinstance(payload, MsgA) and payload.i == self._i:
            # Fig. 1 lines 4 / 13: track the competitor's counter.
            self._records[payload.sender] = (payload.counter, api.slot)
            window = self._window
            if (
                self._phase == PHASE_COMPETE
                and abs(self.counter_at(api.slot) - payload.counter) <= window
            ):
                # Fig. 1 line 15: forced restart outside every window.
                self._counter_base = chi(self.tracked_counters(api.slot), window)
                self._counter_slot = api.slot
                api.set_timer(self._threshold_slot())
                self._trace(api.slot, "reset", self._counter_base)

    # -- state class R (Fig. 3) --------------------------------------------------------

    def _enter_r(self, api: EventApi) -> None:
        if self._leader is None:
            raise ProtocolError(f"node {self.node_id} entered R without a leader")
        self._state = STATE_R
        api.set_rate(self.config.constants.q_s)
        api.cancel_timer()
        self._trace(api.slot, "enter_R", self._leader)

    def _receive_in_r(self, api: EventApi, payload: Any) -> None:
        if (
            isinstance(payload, MsgC)
            and payload.is_grant
            and payload.sender == self._leader
            and payload.target == self.node_id
        ):
            # Fig. 3 lines 3-4: granted cluster color tc; start competing in
            # state A_{tc * (phi(2R_T) + 1)}.
            self._granted_tc = payload.tc
            self._enter_a(
                api,
                payload.tc * self.config.constants.state_spacing,
                start_slot=api.slot + 1,
            )

    # -- state class C (Fig. 2) -----------------------------------------------------------

    def _enter_c(self, api: EventApi) -> None:
        i = self._i
        self._state = STATE_C
        self._color = i  # Fig. 2 line 1
        self._color_slot = api.slot
        api.cancel_timer()
        if i == 0:
            self._queue = deque()
            self._queued = set()
            self._assigned = {}
            self._next_tc = 0  # Fig. 2 line 5
            self._serving = None
            api.set_rate(self.config.constants.q_l)
        else:
            api.set_rate(self.config.constants.q_s)
        self._trace(api.slot, "enter_C", i)
        for listener in self.config.decision_listeners:
            listener(api.slot, self.node_id, i)

    def _start_serving(self, api: EventApi) -> None:
        """Pop the next request and serve it for ``ceil(mu ln n)`` slots."""
        requester = self._queue.popleft()
        self._queued.discard(requester)
        if requester not in self._assigned:
            self._next_tc += 1  # Fig. 2 line 11
            self._assigned[requester] = self._next_tc
        self._serving = requester
        api.set_timer(api.slot + self.config.constants.serve_slots)
        self._trace(api.slot, "serve", (requester, self._assigned[requester]))

    def _receive_in_c(self, api: EventApi, payload: Any) -> None:
        if self._i != 0:
            return  # non-leader color holders ignore all traffic
        if (
            isinstance(payload, MsgR)
            and payload.leader == self.node_id
            and payload.sender not in self._queued
            and payload.sender != self._serving
        ):
            # Fig. 2 line 7 (plus deviation 2: re-queue lost-grant repeats).
            self._queue.append(payload.sender)
            self._queued.add(payload.sender)
            if self._serving is None:
                self._start_serving(api)

    # -- helpers ---------------------------------------------------------------------------

    def _trace(self, slot: int, kind: str, detail: Any) -> None:
        if self.config.trace is not None:
            self.config.trace.record(slot, self.node_id, kind, detail)
