"""A uniform-grid spatial index over a fixed point set.

Unit-disk-graph construction and channel bookkeeping need many
"all points within radius r of p" queries.  For the bounded-density
deployments this library works with, bucketing points into square cells of
side ``cell_size`` answers such queries in expected O(1 + output) time.
:func:`candidate_pairs` answers the all-pairs form of the question — every
pair close enough to matter — in one vectorised pass over the same grid
— and :func:`unit_disk_csr` turns it into the unit-disk graph's
adjacency, the one place that decides what an edge is.

The index is immutable: it is built once over a position array and then
queried.  This matches how the library uses it (deployments never move) and
keeps the implementation simple and obviously correct.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from .._validation import require_positive
from ..errors import ConfigurationError
from .point import as_positions

__all__ = ["GridIndex", "candidate_pairs", "unit_disk_csr"]

#: Cells a hair wider than ``reach``: with side exactly ``reach``, rounding
#: in ``x / side`` can put two points ``reach`` apart two cells apart (say
#: ``x = -5e-18`` and ``x = 0.1`` at ``reach = 0.1``).  The slack outweighs
#: that rounding for coordinates below ``2**30 * reach``.
_CELL_SLACK = 1.0 + 2.0**-20


class GridIndex:
    """Immutable uniform-grid index over a ``(n, 2)`` position array.

    Parameters
    ----------
    positions:
        The point set, shape ``(n, 2)``.
    cell_size:
        Nominal side length of the square grid cells.  Choosing the
        typical query radius gives the classic 3x3-cell neighbourhood
        scan.  Cells are bucketed ``_CELL_SLACK`` wider, as in
        :func:`candidate_pairs`, so a point exactly ``cell_size`` away
        never lands two cells off.
    """

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        self._positions = as_positions(positions)
        self._cell_size = require_positive("cell_size", cell_size)
        self._side = self._cell_size * _CELL_SLACK
        cells: dict[tuple[int, int], list[int]] = defaultdict(list)
        for index, (x, y) in enumerate(self._positions):
            cells[self._cell_of(x, y)].append(index)
        # Freeze buckets as arrays for fast vectorised gathers.
        self._cells: dict[tuple[int, int], np.ndarray] = {
            key: np.asarray(bucket, dtype=np.intp) for key, bucket in cells.items()
        }

    @property
    def positions(self) -> np.ndarray:
        """The indexed position array (do not mutate)."""
        return self._positions

    @property
    def cell_size(self) -> float:
        """Nominal side length of the grid cells."""
        return self._cell_size

    def __len__(self) -> int:
        return len(self._positions)

    def _cell_of(self, x: float, y: float) -> tuple[int, int]:
        return (math.floor(x / self._side), math.floor(y / self._side))

    def _candidate_indices(self, center: np.ndarray, radius: float) -> np.ndarray:
        """Indices in all grid cells intersecting the query disc."""
        cx, cy = float(center[0]), float(center[1])
        reach = math.ceil(radius / self._side)
        base_i, base_j = self._cell_of(cx, cy)
        buckets = []
        for di in range(-reach, reach + 1):
            for dj in range(-reach, reach + 1):
                bucket = self._cells.get((base_i + di, base_j + dj))
                if bucket is not None:
                    buckets.append(bucket)
        if not buckets:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(buckets)

    def query_disc(self, center: np.ndarray | tuple, radius: float) -> np.ndarray:
        """Indices of all points within ``radius`` of ``center`` (closed disc).

        The returned indices are sorted ascending.
        """
        if radius < 0:
            raise ConfigurationError(f"query radius must be >= 0, got {radius}")
        center = np.asarray(center, dtype=np.float64)
        candidates = self._candidate_indices(center, radius)
        if candidates.size == 0:
            return candidates
        diff = self._positions[candidates] - center[None, :]
        inside = np.einsum("ij,ij->i", diff, diff) <= radius * radius
        return np.sort(candidates[inside])

    def query_annulus(
        self, center: np.ndarray | tuple, inner: float, outer: float
    ) -> np.ndarray:
        """Indices of points with ``inner <= distance <= outer`` from ``center``."""
        if inner < 0 or outer < inner:
            raise ConfigurationError(
                f"annulus radii must satisfy 0 <= inner <= outer, got {inner}, {outer}"
            )
        center = np.asarray(center, dtype=np.float64)
        candidates = self._candidate_indices(center, outer)
        if candidates.size == 0:
            return candidates
        diff = self._positions[candidates] - center[None, :]
        sq = np.einsum("ij,ij->i", diff, diff)
        inside = (sq >= inner * inner) & (sq <= outer * outer)
        return np.sort(candidates[inside])

    def neighbors_within(self, index: int, radius: float) -> np.ndarray:
        """Indices of points within ``radius`` of point ``index``, excluding itself."""
        found = self.query_disc(self._positions[index], radius)
        return found[found != index]


def candidate_pairs(
    positions: np.ndarray, reach: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of points that may lie within ``reach`` of each other.

    Returns ``(i, j, sq)``: ``np.intp`` arrays with ``i < j``, sorted by
    ``(i, j)``, and the squared distance ``dx*dx + dy*dy`` of each pair.
    The pairs are those in the same or adjacent cells ``floor(x / side)``
    of a grid of side just over ``reach``, which include every pair whose
    computed distance is at most ``reach``; callers keep the pairs whose
    ``sq`` passes their own distance rule.  O(n log n + pairs), with no
    per-point Python loop.
    """
    positions = as_positions(positions)
    require_positive("reach", reach)
    n = len(positions)
    cells = np.floor(positions / (reach * _CELL_SLACK))
    for axis in (0, 1):
        # Renumber occupied cells, shrinking each run of empty ones to one:
        # adjacency survives and the numbers stay below 2n.
        by_cell = np.argsort(cells[:, axis])
        steps = np.minimum(np.diff(cells[by_cell, axis]), 2.0)
        cells[by_cell, axis] = np.concatenate(([0.0], np.cumsum(steps)))
    # One key per cell; the spare row per column keeps a +-1 row step from
    # wrapping into the next column.
    stride = int(cells[:, 1].max(initial=0)) + 2
    key = (cells[:, 0] * stride + cells[:, 1]).astype(np.int64)
    order = np.argsort(key, kind="stable")
    ordered = key[order]
    # Each cell meets itself (later members only) and its 4 neighbours in
    # one half-plane, so every unordered pair is visited exactly once.
    first = np.arange(n)
    starts, stops = [first + 1], [np.searchsorted(ordered, ordered, "right")]
    for step in (1, stride - 1, stride, stride + 1):
        starts.append(np.searchsorted(ordered, ordered + step, "left"))
        stops.append(np.searchsorted(ordered, ordered + step, "right"))
    lo = np.concatenate(starts)
    counts = np.concatenate(stops) - lo
    # Expand each (point, range) to its pairs; no temporary outlives its line.
    i = order[np.repeat(np.tile(first, 5), counts)]
    j = order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())]
    i, j = np.minimum(i, j), np.maximum(i, j)
    by_pair = np.argsort(i * n + j)
    i, j = i[by_pair], j[by_pair]
    diff = positions[i] - positions[j]
    return i, j, np.einsum("ij,ij->i", diff, diff)


def unit_disk_csr(
    positions: np.ndarray, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """The unit-disk graph's adjacency in compressed sparse row form.

    Returns ``(start, adjacent)``: node ``u``'s neighbours, ascending,
    are ``adjacent[start[u]:start[u + 1]]``.  ``u`` and ``v`` are
    adjacent iff ``u != v`` and their squared distance from
    :func:`candidate_pairs` is at most ``radius**2`` — the rule every
    consumer of the graph (the unit-disk graph, the graph channel)
    shares by calling this function.
    """
    positions = as_positions(positions)
    i, j, sq = candidate_pairs(positions, radius)
    near = sq <= radius * radius
    i, j = i[near], j[near]
    # Pairs come sorted by (i, j): listing each edge from its j end
    # first, a stable sort by owner leaves every list ascending.
    owner = np.concatenate((j, i))
    adjacent = np.concatenate((i, j))[np.argsort(owner, kind="stable")]
    start = np.zeros(len(positions) + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=len(positions)), out=start[1:])
    return start, adjacent
