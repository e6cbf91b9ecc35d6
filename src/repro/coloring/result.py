"""Result object returned by the coloring run harness."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.coloring import Coloring
from ..graphs.udg import UnitDiskGraph
from ..invariants import IndependenceViolation
from ..simulation.event_sim import RunStats
from ..simulation.trace import TraceRecorder
from .constants import AlgorithmConstants

__all__ = ["MWColoringResult"]


@dataclass(frozen=True)
class MWColoringResult:
    """Everything one MW coloring run produced.

    Attributes
    ----------
    graph:
        The unit disk graph the protocol ran on (radius = ``R_T``).
    coloring:
        Final color per node (only meaningful if ``stats.completed``).
    leaders:
        Sorted indices of nodes that won color 0 (the independent set /
        cluster heads).
    decision_slots:
        Slot in which each node entered its ``C`` state (-1 if undecided).
    stats:
        Simulator run statistics.
    constants:
        The algorithm constants the run used.
    trace:
        The shared event trace (empty recorder when tracing was off).
    fault_events:
        The fault layer's injection counters when the run carried a
        :class:`~repro.faults.FaultPlan` (None for clean runs).
    audit_violations:
        The live Theorem 1 audit's findings, in detection order (the
        same field as :attr:`repro.algorithms.ColoringRunResult.
        audit_violations`); empty when every class stayed independent.
    """

    graph: UnitDiskGraph
    coloring: Coloring
    leaders: np.ndarray
    decision_slots: np.ndarray
    stats: RunStats
    constants: AlgorithmConstants
    trace: TraceRecorder
    fault_events: dict[str, int] | None = None
    audit_violations: tuple[IndependenceViolation, ...] = ()

    @property
    def n(self) -> int:
        """Number of nodes."""
        return self.graph.n

    @property
    def num_colors(self) -> int:
        """Number of distinct colors used."""
        return self.coloring.num_colors

    @property
    def max_color(self) -> int:
        """Largest color value used (palette span)."""
        return self.coloring.max_color

    @property
    def palette_bound(self) -> int:
        """Theorem 2's palette bound at the run's constants
        (:func:`repro.analysis.theory.palette_bound`)."""
        from ..analysis.theory import palette_bound

        return palette_bound(self.constants.phi_2rt, self.constants.delta)

    @property
    def slots_to_complete(self) -> int:
        """Slot by which the last node decided (= max decision slot + 1)."""
        if not self.stats.completed:
            return self.stats.slots_run
        if self.decision_slots.size == 0:
            return 0
        return int(self.decision_slots.max()) + 1

    def is_proper(self) -> bool:
        """Whether the result is a valid distance-1 coloring of the UDG."""
        return self.coloring.is_valid(self.graph.positions, self.graph.radius, d=1.0)

    def conflicts(self) -> list[tuple[int, int]]:
        """Same-colored adjacent pairs (empty for a proper coloring)."""
        return self.coloring.conflicts(self.graph.positions, self.graph.radius, d=1.0)

    def leaders_independent(self) -> bool:
        """Whether the final leader set is independent (Theorem 1 at the end)."""
        from ..graphs.independent import is_independent_set

        return is_independent_set(
            self.graph.positions, self.leaders.tolist(), self.graph.radius
        )

    def summary(self) -> dict:
        """Flat dict of the headline numbers (one experiment table row)."""
        return {
            "n": self.n,
            "delta": self.constants.delta,
            "completed": self.stats.completed,
            "slots": self.slots_to_complete,
            "colors": self.num_colors,
            "max_color": self.max_color,
            "palette_bound": self.palette_bound,
            "leaders": int(len(self.leaders)),
            "proper": self.is_proper(),
        }
