"""Baseline colorings, and their registration as zoo yardsticks.

The paper's related-work section positions the MW algorithm against
classical colorings computed in interference-free message-passing models.
Two baselines anchor the experiments:

* :func:`greedy_coloring` — centralised sequential greedy.  On any graph it
  uses at most ``Delta + 1`` colors; it is the quality yardstick for
  palette sizes and, applied to the geometric power graph, the constructive
  source of distance-d colorings for the MAC experiments.
* :func:`randomized_coloring` — a Luby-style synchronous randomised
  ``(Delta+1)``-coloring in the *point-to-point message passing model*
  (no interference), converging in ``O(log n)`` rounds w.h.p.  It
  represents the "classical model" algorithms that Corollary 1 simulates
  in the SINR world.

Registered as the ``greedy`` and ``luby`` entries, they anchor the arena
tables and show what palette/convergence quality costs when interference
is assumed away, under the same conformance suite as every SINR
competitor.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .._validation import require_int
from ..errors import ColoringError
from ..graphs.coloring import Coloring
from ..graphs.udg import UnitDiskGraph
from ..simulation.rng import rng_from_seed
from .base import ColoringAlgorithm, ColoringRunResult, ColoringTask
from .registry import register_algorithm

__all__ = [
    "GreedyBaseline",
    "LubyBaseline",
    "greedy_coloring",
    "randomized_coloring",
]


def greedy_coloring(
    graph: UnitDiskGraph, order: Sequence[int] | None = None
) -> Coloring:
    """Sequential greedy coloring: each node takes the smallest free color.

    ``order`` fixes the processing sequence (default: index order).  The
    result is a proper distance-1 coloring of ``graph`` using at most
    ``graph.max_degree + 1`` colors; run it on
    :func:`repro.graphs.power.power_graph` to obtain distance-d colorings.
    """
    n = graph.n
    if order is None:
        order = range(n)
    order = [int(v) for v in order]
    if sorted(order) != list(range(n)):
        raise ColoringError("order must be a permutation of all nodes")
    colors = np.full(n, -1, dtype=np.int64)
    for node in order:
        taken = {int(colors[v]) for v in graph.neighbors(node) if colors[v] >= 0}
        color = 0
        while color in taken:
            color += 1
        colors[node] = color
    return Coloring(colors)


def randomized_coloring(
    graph: UnitDiskGraph, seed: int = 0, max_rounds: int = 10_000
) -> tuple[Coloring, int]:
    """Synchronous randomised ``(Delta+1)``-coloring (Luby-style).

    Each round every uncolored node draws a uniform candidate from its
    remaining palette ``{0..deg(v)} minus`` neighbours' final colors and
    keeps it iff no uncolored neighbour drew the same candidate this round.
    Runs in the interference-free message-passing abstraction; returns the
    proper coloring and the number of rounds it took.

    Raises :class:`ColoringError` if ``max_rounds`` elapse before every
    node decides (vanishingly unlikely for sane inputs).
    """
    require_int("max_rounds", max_rounds, minimum=1)
    rng = rng_from_seed(seed)
    n = graph.n
    colors = np.full(n, -1, dtype=np.int64)
    for round_index in range(1, max_rounds + 1):
        undecided = np.flatnonzero(colors < 0)
        if undecided.size == 0:
            return Coloring(colors), round_index - 1
        candidates = np.full(n, -1, dtype=np.int64)
        for node in undecided:
            node = int(node)
            taken = {
                int(colors[v]) for v in graph.neighbors(node) if colors[v] >= 0
            }
            palette = [c for c in range(graph.degree(node) + 1) if c not in taken]
            candidates[node] = int(rng.choice(palette))
        for node in undecided:
            node = int(node)
            mine = candidates[node]
            conflict = any(
                candidates[v] == mine for v in graph.neighbors(node) if colors[v] < 0
            )
            if not conflict:
                colors[node] = mine
    if (colors < 0).any():
        raise ColoringError(
            f"randomized coloring did not converge within {max_rounds} rounds"
        )
    return Coloring(colors), max_rounds


@register_algorithm
class GreedyBaseline(ColoringAlgorithm):
    """Centralised sequential greedy: at most ``Delta + 1`` colors."""

    name = "greedy"
    model = "centralised"

    def palette_bound(self, delta: int) -> int:
        return max(1, delta) + 1

    def run(self, task: ColoringTask) -> ColoringRunResult:
        graph = task.graph()
        coloring = greedy_coloring(graph)
        n = graph.n
        return ColoringRunResult(
            algorithm=self.name,
            graph=graph,
            colors=np.asarray(coloring.colors, dtype=np.int64),
            decision_slots=np.zeros(n, dtype=np.int64),
            palette_bound=self.palette_bound(graph.max_degree),
            completed=True,
            convergence_slots=0,
            audit_violations=None,
            extras={"fault_immune": True},
        )


@register_algorithm
class LubyBaseline(ColoringAlgorithm):
    """Luby-style randomised ``Delta+1`` coloring (message passing)."""

    name = "luby"
    model = "classical"

    def palette_bound(self, delta: int) -> int:
        """Per-node palettes are ``{0..deg(v)}``: globally ``Delta + 1``."""
        return max(1, delta) + 1

    def run(self, task: ColoringTask) -> ColoringRunResult:
        graph = task.graph()
        coloring, rounds = randomized_coloring(graph, seed=task.seed)
        n = graph.n
        return ColoringRunResult(
            algorithm=self.name,
            graph=graph,
            colors=np.asarray(coloring.colors, dtype=np.int64),
            # One synchronous round per slot is the natural embedding;
            # the classical model has no finer time axis.
            decision_slots=np.full(n, max(0, rounds - 1), dtype=np.int64),
            palette_bound=self.palette_bound(graph.max_degree),
            completed=True,
            convergence_slots=rounds,
            audit_violations=None,
            extras={"rounds": rounds, "fault_immune": True},
        )
