"""Unit disk graph construction.

The paper models the network as the graph ``G = (V, E, R_T)`` with an edge
between ``u`` and ``v`` iff ``delta(u, v) <= R_T`` — in the absence of other
transmissions, ``u`` hears ``v`` within the transmission range ``R_T``
(Section II).  :class:`UnitDiskGraph` materialises the adjacency structure
once (via :func:`~repro.geometry.grid_index.unit_disk_csr`, expected
O(n log n + n * degree)) and provides the degree and neighborhood queries
every other subsystem relies on.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .._validation import require_positive
from ..errors import ConfigurationError
from ..geometry.deployment import Deployment
from ..geometry.grid_index import GridIndex, unit_disk_csr
from ..geometry.point import as_positions

__all__ = ["UnitDiskGraph"]


class UnitDiskGraph:
    """Immutable unit disk graph over a fixed position array.

    Parameters
    ----------
    positions:
        ``(n, 2)`` coordinates, or a :class:`~repro.geometry.Deployment`.
    radius:
        The connectivity radius (the paper's transmission range ``R_T``).
    """

    def __init__(
        self, positions: np.ndarray | Deployment, radius: float
    ) -> None:
        if isinstance(positions, Deployment):
            positions = positions.positions
        self._positions = as_positions(positions)
        self._radius = require_positive("radius", radius)
        start, adjacent = unit_disk_csr(self._positions, radius)
        self._degrees = np.diff(start)
        bounds = start.tolist()
        self._neighbors: list[np.ndarray] = [
            adjacent[lo:hi] for lo, hi in zip(bounds, bounds[1:])
        ]

    # -- basic accessors ---------------------------------------------------

    @property
    def positions(self) -> np.ndarray:
        """The node coordinate array (do not mutate)."""
        return self._positions

    @property
    def radius(self) -> float:
        """Connectivity radius ``R_T``."""
        return self._radius

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._positions)

    def __len__(self) -> int:
        return self.n

    # -- adjacency ----------------------------------------------------------

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted array of neighbours of ``node`` (nodes within ``radius``)."""
        self._check_node(node)
        return self._neighbors[node]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        self._check_node(node)
        return int(self._degrees[node])

    @property
    def degrees(self) -> np.ndarray:
        """Array of all node degrees."""
        return self._degrees

    @property
    def max_degree(self) -> int:
        """The paper's ``Delta`` — maximum degree of the graph."""
        if self.n == 0:
            return 0
        return int(self._degrees.max())

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return int(self._degrees.sum()) // 2

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``u`` and ``v`` are adjacent (``u != v`` within radius)."""
        self._check_node(u)
        self._check_node(v)
        if u == v:
            return False
        return bool(np.isin(v, self._neighbors[u]).item())

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in range(self.n):
            for v in self._neighbors[u]:
                if int(v) > u:
                    yield u, int(v)

    def nodes_within(self, node: int, distance: float) -> np.ndarray:
        """All nodes within Euclidean ``distance`` of ``node``, excluding it."""
        self._check_node(node)
        index = GridIndex(self._positions, cell_size=self._radius)
        return index.neighbors_within(node, distance)

    # -- connectivity --------------------------------------------------------

    def connected_components(self) -> list[np.ndarray]:
        """Connected components as sorted index arrays, largest first."""
        seen = np.zeros(self.n, dtype=bool)
        components: list[np.ndarray] = []
        for start in range(self.n):
            if seen[start]:
                continue
            stack = [start]
            seen[start] = True
            members = [start]
            while stack:
                u = stack.pop()
                for v in self._neighbors[u]:
                    v = int(v)
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
                        members.append(v)
            components.append(np.sort(np.asarray(members, dtype=np.intp)))
        components.sort(key=len, reverse=True)
        return components

    def is_connected(self) -> bool:
        """Whether the graph has a single connected component (or is empty)."""
        if self.n == 0:
            return True
        return len(self.connected_components()) == 1

    # -- internals -----------------------------------------------------------

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n:
            raise ConfigurationError(
                f"node index {node} out of range for graph with {self.n} nodes"
            )
