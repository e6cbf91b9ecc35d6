"""The canonical iteration order of a parameter sweep.

Experiments are grids of configurations crossed with seeds.
:func:`enumerate_combos` is the single source of truth for the order in
which that cross product is visited: every experiment's ``units()``
builds its unit list through it (via
:func:`repro.experiments._units.grid_units`), so the serial
``run_units`` path and the shard planner in :mod:`repro.orchestration`
see the same rows in the same order.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping

__all__ = ["enumerate_combos"]


def enumerate_combos(
    grid: Mapping[str, Iterable],
    seeds: Iterable[int] = (0,),
) -> Iterator[tuple[dict, int]]:
    """Yield ``(combo, seed)`` pairs in the canonical sweep order.

    The order is the row-major cross product of the grid axes (axes in
    ``grid``'s own key order, each axis in its given element order) with
    the seed loop innermost.  An empty grid yields one empty combo per
    seed, so seed-only sweeps enumerate through the same path.

    Each yielded ``combo`` is a fresh dict, safe to mutate.
    """
    keys = list(grid.keys())
    axes = [list(grid[k]) for k in keys]
    for combo in itertools.product(*axes):
        for seed in seeds:
            yield dict(zip(keys, combo)), seed
