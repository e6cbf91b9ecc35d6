"""TDMA frames derived from a coloring.

Section V: "we associate each color ``c`` with a time slot ``t_c`` where
nodes colored ``c`` can transmit in time slot ``t_c``."  The frame length
is the number of colors ``V``; Theorem 3 guarantees that with a
``(d+1, V)``-coloring every broadcast inside a frame is received by all
neighbors, so any node reaches its whole neighborhood within ``V`` slots.

:func:`play_frame` plays one frame over a channel: the one frame loop of
the Theorem 3 audit, both Corollary 1 simulators and the simulated
palette reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from ..errors import ScheduleError
from ..graphs.coloring import Coloring

if TYPE_CHECKING:
    from ..sinr.channel import Channel

__all__ = ["FrameTally", "TDMASchedule", "play_frame"]


class TDMASchedule:
    """Immutable color -> slot assignment over one frame.

    Distinct colors are mapped to slots ``0 .. V-1`` in increasing color
    order; the frame repeats forever.
    """

    def __init__(self, coloring: Coloring) -> None:
        if len(coloring) == 0:
            raise ScheduleError("cannot build a TDMA schedule from an empty coloring")
        self._coloring = coloring
        palette = np.unique(coloring.colors)
        self._slot_of_color = {int(color): slot for slot, color in enumerate(palette)}
        self._color_of_slot = {slot: int(color) for slot, color in enumerate(palette)}
        self._slot_of_node = np.asarray(
            [self._slot_of_color[int(c)] for c in coloring.colors], dtype=np.int64
        )

    @property
    def coloring(self) -> Coloring:
        """The coloring the schedule was derived from."""
        return self._coloring

    @property
    def frame_length(self) -> int:
        """Number of slots per frame (= number of distinct colors ``V``)."""
        return len(self._slot_of_color)

    @property
    def n(self) -> int:
        """Number of scheduled nodes."""
        return len(self._coloring)

    def slot_of(self, node: int) -> int:
        """The within-frame slot in which ``node`` may transmit."""
        return int(self._slot_of_node[node])

    def color_of_slot(self, slot: int) -> int:
        """The color transmitting in within-frame ``slot``."""
        if slot not in self._color_of_slot:
            raise ScheduleError(
                f"slot {slot} out of frame range 0..{self.frame_length - 1}"
            )
        return self._color_of_slot[slot]

    def nodes_in_slot(self, slot: int) -> np.ndarray:
        """All nodes allowed to transmit in within-frame ``slot`` (sorted)."""
        color = self.color_of_slot(slot)
        return np.flatnonzero(self._coloring.colors == color)

    def global_slot(self, frame: int, slot: int) -> int:
        """Absolute slot number of within-frame ``slot`` in ``frame``."""
        if not 0 <= slot < self.frame_length:
            raise ScheduleError(
                f"slot {slot} out of frame range 0..{self.frame_length - 1}"
            )
        if frame < 0:
            raise ScheduleError(f"frame must be >= 0, got {frame}")
        return frame * self.frame_length + slot


@dataclass
class FrameTally:
    """Running totals over played frames: owed (sender, receiver) pairs
    ``expected`` and ``delivered``, the first 20 owed pairs that did not
    decode (``failures``), and the ``transmissions`` and ``deliveries``
    (owed or not) the channel saw."""

    expected: int = 0
    delivered: int = 0
    transmissions: int = 0
    deliveries: int = 0
    failures: list[tuple[int, int]] = field(default_factory=list)

    @property
    def lost(self) -> int:
        """Owed pairs that did not decode."""
        return self.expected - self.delivered


def play_frame(
    schedule: TDMASchedule,
    channel: Channel,
    payload: Callable[[int], Any],
    owed: Callable[[int], Iterable[int]],
    deliver: Callable[[int, int, Any], None] | None = None,
    first_slot: int = 0,
    tally: FrameTally | None = None,
) -> FrameTally:
    """Play one frame of ``schedule`` on ``channel``, one color class per slot.

    Slot by slot: a channel with a ``begin_slot`` hook (a fault wrapper)
    is told the absolute slot ``first_slot + slot``, silent slots too;
    the class members (ascending) are asked for ``payload(node)`` and
    those that return ``None`` stay silent; the rest transmit together;
    ``deliver(receiver, sender, payload)`` runs per decoded transmission;
    and each sender's ``owed(sender)`` receivers are scored against what
    decoded.  Counts add to ``tally`` (a new one if omitted), returned.
    """
    if tally is None:
        tally = FrameTally()
    begin_slot = getattr(channel, "begin_slot", None)
    for slot in range(schedule.frame_length):
        if begin_slot is not None:
            begin_slot(first_slot + slot)
        senders = []
        payloads = []
        for node in schedule.nodes_in_slot(slot).tolist():
            message = payload(node)
            if message is not None:
                senders.append(node)
                payloads.append(message)
        if not senders:
            continue
        deliveries = channel.resolve(senders, payloads)
        pairs = list(
            zip(deliveries.receivers.tolist(), deliveries.columns.tolist())
        )
        tally.transmissions += len(senders)
        tally.deliveries += len(pairs)
        if deliver is not None:
            for receiver, column in pairs:
                deliver(receiver, senders[column], payloads[column])
        decoded = {(senders[column], receiver) for receiver, column in pairs}
        for sender in senders:
            for receiver in owed(sender):
                tally.expected += 1
                if (sender, receiver) in decoded:
                    tally.delivered += 1
                elif len(tally.failures) < 20:
                    tally.failures.append((sender, int(receiver)))
    return tally
