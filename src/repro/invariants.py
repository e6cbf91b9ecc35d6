"""The paper's checkable invariants, in one shared module.

Three guarantees of the paper are cheap to audit empirically and are the
backbone of both the test suite and the fault layer's degradation
reports:

* **Theorem 1** — every color class is an independent set *at all times*
  during execution (:class:`IndependenceAuditor` live per decision,
  :func:`independence_violations` statically on a finished coloring).
* **Theorem 3** — a coloring-based TDMA frame serves every
  (sender, neighbor) pair with zero failures under full same-color load
  (:func:`verify_tdma_broadcast`).
* **Palette validity** — colors are non-negative and within the claimed
  palette bound (:func:`palette_violations`).

Keeping the checkers in this one module means the production runs and
the tests run the *same* code and cannot drift.

Under fault injection these invariants may genuinely break (that is the
point of injecting faults); every checker here therefore *records*
violations instead of raising, so faulted runs always complete and
report how far they degraded
(:attr:`repro.algorithms.ColoringRunResult.clean` and
:meth:`~repro.algorithms.ColoringRunResult.row` judge a whole run).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ._validation import require_positive
from .errors import ScheduleError
from .geometry.grid_index import candidate_pairs
from .geometry.point import as_positions
from .sinr.channel import SINRChannel
from .sinr.params import PhysicalParams

if TYPE_CHECKING:
    from .graphs.udg import UnitDiskGraph
    from .mac.tdma import TDMASchedule

__all__ = [
    "IndependenceAuditor",
    "IndependenceViolation",
    "MacVerificationReport",
    "independence_violations",
    "palette_violations",
    "verify_tdma_broadcast",
]


# ---------------------------------------------------------------------------
# Theorem 1: independence of every color class, at all times.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndependenceViolation:
    """One detected violation: two class-``i`` members within ``radius``."""

    slot: int
    color_index: int
    pair: tuple[int, int]
    distance: float


@dataclass
class IndependenceAuditor:
    """Checks the Theorem 1 invariant at every decision event.

    Membership of a class only ever grows, and it grows exactly when a
    node enters it — so auditing every decision event is equivalent to
    auditing every slot, at a fraction of the cost.  Attach via
    ``MWSharedConfig(decision_listeners=(auditor.on_decision,))``;
    :func:`repro.coloring.runner.run_protocol` attaches one to every
    coloring run, whose result carries its findings as
    ``audit_violations``.

    Parameters
    ----------
    positions:
        Node coordinates.
    radius:
        Independence scale (the paper's ``R_T``).
    """

    positions: np.ndarray
    radius: float
    violations: list[IndependenceViolation] = field(default_factory=list)
    decisions_audited: int = field(default=0, init=False)
    _members: dict[int, list[int]] = field(
        default_factory=lambda: defaultdict(list), init=False
    )

    def __post_init__(self) -> None:
        self.positions = as_positions(self.positions)
        require_positive("radius", self.radius)

    def on_decision(self, slot: int, node: int, color: int) -> None:
        """Decision hook: audit ``node`` joining class ``color`` at ``slot``."""
        self.decisions_audited += 1
        px, py = self.positions[node].tolist()
        # The unit-disk graph's rule (squared distance at most radius**2),
        # so the live audit and the static check agree on every pair.
        reach_sq = self.radius * self.radius
        for member in self._members[color]:
            qx, qy = self.positions[member].tolist()
            dx, dy = px - qx, py - qy
            sq = dx * dx + dy * dy
            if sq <= reach_sq:
                self.violations.append(
                    IndependenceViolation(
                        slot=slot,
                        color_index=color,
                        pair=(min(node, member), max(node, member)),
                        distance=math.sqrt(sq),
                    )
                )
        self._members[color].append(node)

    def members_of(self, color: int) -> list[int]:
        """Current members of class ``color`` in decision order."""
        return list(self._members[color])

    @property
    def clean(self) -> bool:
        """True iff no violation was ever observed."""
        return not self.violations


def independence_violations(
    positions: np.ndarray,
    radius: float,
    colors: np.ndarray,
    undecided: int | None = None,
) -> list[IndependenceViolation]:
    """Static Theorem 1 check of a finished (or partial) coloring.

    Every same-colored pair within ``radius`` is a violation (reported
    with ``slot=-1`` — the static check has no time axis).  "Within" is
    the unit-disk graph's rule (:func:`~repro.geometry.grid_index.
    unit_disk_csr`: squared distance at most ``radius**2``), so a coloring
    proper on the graph passes.  Nodes colored
    ``undecided`` (default: any negative color) are skipped: an undecided
    node belongs to no class yet, so it cannot break one.
    """
    positions = as_positions(positions)
    require_positive("radius", radius)
    colors = np.asarray(colors, dtype=np.int64)
    if len(colors) != len(positions):
        raise ScheduleError(
            f"{len(colors)} colors for {len(positions)} positions"
        )
    skipped = colors < 0 if undecided is None else colors == undecided
    members = np.flatnonzero(~skipped)
    i, j, sq = candidate_pairs(positions[members], radius)
    u, v, distance = members[i], members[j], np.sqrt(sq)
    close = (colors[u] == colors[v]) & (sq <= radius * radius)
    # Pairs come sorted by (u, v): a stable sort by color gives the
    # reporting order (color, then pair).
    order = np.argsort(colors[u[close]], kind="stable")
    u, v, distance = u[close][order], v[close][order], distance[close][order]
    return [
        IndependenceViolation(slot=-1, color_index=c, pair=(a, b), distance=d)
        for c, a, b, d in zip(
            colors[u].tolist(), u.tolist(), v.tolist(), distance.tolist()
        )
    ]


# ---------------------------------------------------------------------------
# Palette validity.
# ---------------------------------------------------------------------------


def palette_violations(
    colors: np.ndarray, palette_size: int | None = None
) -> list[int]:
    """Nodes whose color falls outside the claimed palette.

    A valid entry is a non-negative color, strictly below
    ``palette_size`` when a bound is given (the paper's ``(d+1, V)``
    colorings promise ``V`` colors).  Returns the offending node ids.
    """
    colors = np.asarray(colors, dtype=np.int64)
    bad = colors < 0
    if palette_size is not None:
        if palette_size <= 0:
            raise ScheduleError(
                f"palette_size must be > 0, got {palette_size}"
            )
        bad |= colors >= palette_size
    return [int(node) for node in np.flatnonzero(bad)]


# ---------------------------------------------------------------------------
# Theorem 3: zero TDMA delivery failures under full same-color load.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MacVerificationReport:
    """Outcome of one full-frame broadcast audit.

    Attributes
    ----------
    frame_length:
        Slots per frame (``V``).
    expected:
        Number of (sender, neighbor) pairs that must be served per frame.
    delivered:
        How many of those pairs actually decoded the message.
    failures:
        Up to 20 sample failed pairs ``(sender, neighbor)``.
    """

    frame_length: int
    expected: int
    delivered: int
    failures: tuple[tuple[int, int], ...]

    @property
    def success_rate(self) -> float:
        """Delivered fraction; 1.0 means an interference-free frame."""
        if self.expected == 0:
            return 1.0
        return self.delivered / self.expected

    @property
    def interference_free(self) -> bool:
        """Theorem 3's claim: every pair served within the frame."""
        return self.delivered == self.expected


def verify_tdma_broadcast(
    graph: "UnitDiskGraph",
    schedule: "TDMASchedule",
    params: PhysicalParams,
) -> MacVerificationReport:
    """Audit one frame of ``schedule`` on ``graph`` under SINR.

    Runs one full frame with *everyone* transmitting in their slot (the
    worst case: maximum simultaneous same-color load) and counts, for
    every (sender, neighbor) pair of the radius-``R_T`` communication
    graph, whether the neighbor decoded the sender.  ``graph`` must be
    the radius-``R_T`` communication graph of ``params``.
    """
    # Imported here: repro.mac imports this module.
    from .mac.tdma import play_frame

    if schedule.n != graph.n:
        raise ScheduleError(
            f"schedule covers {schedule.n} nodes, graph has {graph.n}"
        )
    channel = SINRChannel(graph.positions, params)
    tally = play_frame(
        schedule, channel, lambda node: ("mac-audit", node), graph.neighbors
    )
    return MacVerificationReport(
        frame_length=schedule.frame_length,
        expected=tally.expected,
        delivered=tally.delivered,
        failures=tuple(tally.failures),
    )
