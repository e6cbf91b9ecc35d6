"""Slotted-ALOHA local broadcast baseline.

The natural uncoordinated alternative to a coloring-based TDMA schedule:
every node transmits with a fixed probability each slot until each node
has reached *all* of its neighbors at least once.  Under SINR this takes
``Theta(Delta log n)``-ish time with a well-chosen probability (cf. the
local broadcasting results the paper cites) and degrades sharply when the
probability is mistuned — the contrast the MAC experiment (EXP-5) draws
against the deterministic ``V``-slot guarantee of Theorem 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import require_int, require_probability
from ..graphs.udg import UnitDiskGraph
from ..sinr.channel import SINRChannel
from ..sinr.params import PhysicalParams
from ..simulation.rng import rng_from_seed

__all__ = ["AlohaReport", "run_slotted_aloha"]


@dataclass(frozen=True)
class AlohaReport:
    """Outcome of a slotted-ALOHA local broadcast run.

    Attributes
    ----------
    slots_run:
        Slots executed (capped at the budget).
    completed:
        Whether every (sender, neighbor) pair was served.
    served_pairs / total_pairs:
        Coverage progress at the end of the run.
    """

    slots_run: int
    completed: bool
    served_pairs: int
    total_pairs: int

    @property
    def coverage(self) -> float:
        """Fraction of (sender, neighbor) pairs served."""
        if self.total_pairs == 0:
            return 1.0
        return self.served_pairs / self.total_pairs


def run_slotted_aloha(
    graph: UnitDiskGraph,
    params: PhysicalParams,
    probability: float,
    max_slots: int,
    seed: int = 0,
) -> AlohaReport:
    """Run slotted ALOHA until every node reached every neighbor.

    ``probability`` is the per-slot transmission probability of every node
    (the throughput-optimal choice is around ``1/Delta``).
    """
    require_probability("probability", probability)
    require_int("max_slots", max_slots, minimum=0)
    channel = SINRChannel(graph.positions, params)
    rng = rng_from_seed(seed)
    pending: set[tuple[int, int]] = set()
    for u in range(graph.n):
        for v in graph.neighbors(u):
            pending.add((u, int(v)))
    total = len(pending)
    for slot in range(max_slots):
        if not pending:
            return AlohaReport(
                slots_run=slot, completed=True, served_pairs=total, total_pairs=total
            )
        senders = np.flatnonzero(rng.random(graph.n) < probability)
        if senders.size == 0:
            continue
        for delivery in channel.resolve(senders, senders.tolist()):
            pending.discard((delivery.sender, delivery.receiver))
    return AlohaReport(
        slots_run=max_slots,
        completed=not pending,
        served_pairs=total - len(pending),
        total_pairs=total,
    )
