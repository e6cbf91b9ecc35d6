"""Independent-set utilities.

The paper's central invariant (Theorem 1) is that every color class
``C_i`` is an *independent set*: pairwise Euclidean distance strictly
greater than ``R_T``.  These helpers implement the check (used by the
per-slot audits of EXP-3) and a greedy maximal independent set used both as
an analysis oracle and by the empirical ``phi`` estimation.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .._validation import require_positive
from ..geometry.grid_index import GridIndex, candidate_pairs
from ..geometry.point import as_positions

__all__ = ["greedy_mis", "is_independent_set", "violating_pairs"]


def violating_pairs(
    positions: np.ndarray, members: Iterable[int], radius: float
) -> list[tuple[int, int]]:
    """All pairs of ``members`` at Euclidean distance <= ``radius``.

    Returns pairs ``(i, j)`` with ``i < j``; an empty list means ``members``
    is an independent set at scale ``radius``.
    """
    positions = as_positions(positions)
    require_positive("radius", radius)
    member_list = np.asarray(sorted(set(int(m) for m in members)), dtype=np.intp)
    if len(member_list) < 2:
        return []
    a, b, sq = candidate_pairs(positions[member_list], radius)
    near = sq <= radius * radius
    return list(zip(member_list[a[near]].tolist(), member_list[b[near]].tolist()))


def is_independent_set(
    positions: np.ndarray, members: Iterable[int], radius: float
) -> bool:
    """Whether ``members`` are pairwise at distance > ``radius``.

    This is the paper's independence notion for ``G = (V, E, R_T)`` with
    ``radius = R_T``.
    """
    return not violating_pairs(positions, members, radius)


def greedy_mis(
    positions: np.ndarray, radius: float, order: Sequence[int] | None = None
) -> list[int]:
    """Greedy maximal independent set at scale ``radius``.

    Nodes are considered in ``order`` (default: index order); a node joins
    the set iff no already-chosen node is within ``radius``.  The result is
    maximal: every node is within ``radius`` of some chosen node.
    """
    positions = as_positions(positions)
    require_positive("radius", radius)
    n = len(positions)
    if order is None:
        order = range(n)
    index = GridIndex(positions, cell_size=radius)
    chosen_mask = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    for node in order:
        node = int(node)
        nearby = index.neighbors_within(node, radius)
        if not chosen_mask[nearby].any():
            chosen_mask[node] = True
            chosen.append(node)
    return chosen
