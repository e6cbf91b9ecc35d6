"""Palette reduction to ``Delta + 1`` colors (end of Section V).

The paper sketches a standard palette-reduction procedure: starting from a
``(d, O(Delta))``-coloring with ``d`` at least the Theorem 3 MAC distance,
associate each color with a TDMA slot; in their slot, nodes of that color
pick a new color from ``{0 .. Delta}`` that no already-recolored neighbor
took, and announce it — interference-free by Theorem 3.  After one frame
every node wears a color from a palette of exactly ``Delta + 1``.

Two implementations are provided:

* :func:`reduce_palette` — the logical procedure on the graph (deterministic,
  no radio).  It is correct for *any* proper input coloring and is the
  reference the simulated variant is checked against.
* :func:`reduce_palette_simulated` — the announcements physically broadcast
  over an :class:`~repro.sinr.channel.SINRChannel`, one slot per input
  color of the input coloring's TDMA frame
  (:func:`~repro.mac.tdma.play_frame`).  With an input coloring valid at
  the Theorem 3 distance, every announcement reaches every neighbor and
  the output equals the logical procedure; with an insufficient input
  distance the report records the lost announcements (which is exactly
  the failure mode Theorem 3 rules out).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ColoringError
from ..graphs.coloring import Coloring
from ..graphs.udg import UnitDiskGraph
from ..mac.tdma import TDMASchedule, play_frame
from ..sinr.channel import SINRChannel
from ..sinr.params import PhysicalParams

__all__ = ["PaletteReductionReport", "reduce_palette", "reduce_palette_simulated"]


def _smallest_free(taken: set[int], limit: int) -> int:
    """Smallest color in ``{0 .. limit}`` not in ``taken``."""
    for color in range(limit + 1):
        if color not in taken:
            return color
    raise ColoringError(
        f"no free color in 0..{limit}; input coloring was not proper"
    )  # pragma: no cover - guarded by input validation


def reduce_palette(graph: UnitDiskGraph, coloring: Coloring) -> Coloring:
    """Logical palette reduction: classes recolor in ascending color order.

    Requires a proper distance-1 coloring of ``graph`` (same-class nodes
    must be non-adjacent so they may recolor simultaneously).  The result
    is a proper coloring with colors in ``{0 .. Delta}``.
    """
    if len(coloring) != graph.n:
        raise ColoringError(
            f"coloring covers {len(coloring)} nodes, graph has {graph.n}"
        )
    coloring.validate(graph.positions, graph.radius, d=1.0)
    new_colors = np.full(graph.n, -1, dtype=np.int64)
    for old_color in sorted(set(int(c) for c in coloring.colors)):
        for node in np.flatnonzero(coloring.colors == old_color):
            node = int(node)
            taken = {
                int(new_colors[v]) for v in graph.neighbors(node) if new_colors[v] >= 0
            }
            new_colors[node] = _smallest_free(taken, graph.degree(node))
    return Coloring(new_colors)


@dataclass(frozen=True)
class PaletteReductionReport:
    """Outcome of the radio-simulated palette reduction.

    Attributes
    ----------
    coloring:
        The new coloring (palette ``{0 .. Delta}`` when nothing was lost).
    slots_used:
        One slot per input color class.
    announcements:
        Number of (announcer, neighbor) pairs that should have been heard.
    lost:
        Number of those pairs whose announcement was not received.
    """

    coloring: Coloring
    slots_used: int
    announcements: int
    lost: int

    @property
    def interference_free(self) -> bool:
        """Whether every announcement reached every neighbor (Theorem 3 case)."""
        return self.lost == 0


def reduce_palette_simulated(
    graph: UnitDiskGraph,
    coloring: Coloring,
    params: PhysicalParams,
) -> PaletteReductionReport:
    """Palette reduction with announcements broadcast over the SINR channel.

    ``graph`` must be the radius-``R_T`` UDG of ``params``; ``coloring`` is
    the input ``(d, .)``-coloring driving the TDMA order.  Each input color
    gets one slot in which all its wearers broadcast their freshly chosen
    color; each node chooses based on the announcements it actually decoded.
    """
    if len(coloring) != graph.n:
        raise ColoringError(
            f"coloring covers {len(coloring)} nodes, graph has {graph.n}"
        )
    coloring.validate(graph.positions, graph.radius, d=1.0)
    # Each neighbour announces once, so a node's decoded announcements
    # are just the colors it has heard taken.
    heard: list[set[int]] = [set() for _ in range(graph.n)]
    new_colors = np.full(graph.n, -1, dtype=np.int64)
    if graph.n == 0:
        return PaletteReductionReport(Coloring(new_colors), 0, 0, 0)

    def announce(node: int) -> int:
        chosen = _smallest_free(heard[node], graph.degree(node))
        new_colors[node] = chosen
        return chosen

    def hear(receiver: int, announcer: int, color: int) -> None:
        heard[receiver].add(color)

    schedule = TDMASchedule(coloring)
    channel = SINRChannel(graph.positions, params)
    tally = play_frame(schedule, channel, announce, graph.neighbors, hear)
    return PaletteReductionReport(
        coloring=Coloring(new_colors),
        slots_used=schedule.frame_length,
        announcements=tally.expected,
        lost=tally.lost,
    )
