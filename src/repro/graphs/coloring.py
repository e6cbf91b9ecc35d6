"""The :class:`Coloring` value type and distance-``d`` validity checking.

The paper's ``(d, V)``-coloring (Section II): an assignment of a color from
a palette of at most ``V`` colors such that any two nodes at Euclidean
distance at most ``d * R_T`` receive different colors.  ``d = 1`` is a
proper coloring of the unit disk graph itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .._validation import require_positive
from ..errors import ColoringError
from ..geometry.grid_index import candidate_pairs
from ..geometry.point import as_positions

__all__ = ["Coloring"]


@dataclass(frozen=True)
class Coloring:
    """An immutable assignment of integer colors to nodes.

    Attributes
    ----------
    colors:
        ``(n,)`` integer array; ``colors[i]`` is the color of node ``i``.
        Colors are arbitrary non-negative integers (the MW algorithm's
        palette is sparse: leaders take color 0, cluster members take colors
        ``tc * (phi + 1) + k``).
    """

    colors: np.ndarray

    def __post_init__(self) -> None:
        colors = np.asarray(self.colors)
        if colors.ndim != 1:
            raise ColoringError(f"colors must be 1-D, got shape {colors.shape}")
        if colors.size and not np.issubdtype(colors.dtype, np.integer):
            raise ColoringError(f"colors must be integers, got dtype {colors.dtype}")
        if colors.size and colors.min() < 0:
            raise ColoringError("colors must be non-negative")
        object.__setattr__(self, "colors", colors.astype(np.int64))
        self.colors.setflags(write=False)

    @classmethod
    def clamped(cls, colors: np.ndarray) -> "Coloring":
        """A coloring from a run's colors, ``-1`` marking undecided nodes.

        An incomplete run leaves ``-1`` colors; they are clamped into a
        sentinel color one past the largest decided color, so the type
        (non-negative) accepts them while adjacent undecided nodes still
        fail every validity check loudly.
        """
        reported = np.array(colors, dtype=np.int64)
        if (reported < 0).any():
            reported[reported < 0] = reported.max(initial=0) + 1
        return cls(reported)

    def __len__(self) -> int:
        return len(self.colors)

    @property
    def n(self) -> int:
        """Number of colored nodes."""
        return len(self.colors)

    @property
    def num_colors(self) -> int:
        """Number of *distinct* colors used."""
        return len(np.unique(self.colors)) if self.n else 0

    @property
    def max_color(self) -> int:
        """Largest color value used (palette span; >= num_colors - 1)."""
        if self.n == 0:
            raise ColoringError("empty coloring has no max color")
        return int(self.colors.max())

    def color_of(self, node: int) -> int:
        """Color of ``node``."""
        return int(self.colors[node])

    def color_classes(self) -> dict[int, np.ndarray]:
        """Mapping from color value to the sorted array of nodes wearing it."""
        classes: dict[int, np.ndarray] = {}
        for color in np.unique(self.colors):
            classes[int(color)] = np.flatnonzero(self.colors == color)
        return classes

    def class_sizes(self) -> Counter:
        """Counter mapping color -> number of nodes with that color."""
        return Counter(int(c) for c in self.colors)

    # -- validity -------------------------------------------------------------

    def conflicts(
        self, positions: np.ndarray, radius: float, d: float = 1.0
    ) -> list[tuple[int, int]]:
        """Pairs of same-colored nodes at Euclidean distance <= ``d * radius``.

        ``radius`` is the graph's connectivity radius ``R_T``; an empty
        result means this is a valid ``(d, .)``-coloring.
        """
        positions = as_positions(positions)
        require_positive("radius", radius)
        require_positive("d", d)
        if len(positions) != self.n:
            raise ColoringError(
                f"coloring covers {self.n} nodes but positions has {len(positions)}"
            )
        reach = d * radius
        u, v, sq = candidate_pairs(positions, reach)
        bad = (sq <= reach * reach) & (self.colors[u] == self.colors[v])
        return list(zip(u[bad].tolist(), v[bad].tolist()))

    def is_valid(
        self, positions: np.ndarray, radius: float, d: float = 1.0
    ) -> bool:
        """Whether this is a valid ``(d, .)``-coloring at scale ``radius``."""
        return not self.conflicts(positions, radius, d)

    def validate(
        self, positions: np.ndarray, radius: float, d: float = 1.0
    ) -> None:
        """Raise :class:`ColoringError` listing conflicts if invalid."""
        bad = self.conflicts(positions, radius, d)
        if bad:
            shown = ", ".join(f"{u}-{v}" for u, v in bad[:5])
            raise ColoringError(
                f"coloring has {len(bad)} distance-{d} conflicts (e.g. {shown})"
            )

    # -- transforms -------------------------------------------------------------

    def compacted(self) -> "Coloring":
        """Relabel colors to the dense range ``0 .. num_colors-1``.

        Relabelling preserves equality of colors, hence validity at every
        distance; it is used when reporting palette sizes.
        """
        if self.n == 0:
            return self
        _, dense = np.unique(self.colors, return_inverse=True)
        return Coloring(dense.astype(np.int64))
