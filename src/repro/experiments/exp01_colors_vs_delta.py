"""EXP-1 — Theorem 2, palette size: colors used scale as O(Delta).

Sweep the deployment density (hence Delta) at fixed n; report distinct
colors, palette span and the per-run Theorem 2 bound.  The claim holds
when colors grow linearly with Delta and the span stays below the bound.
"""

from __future__ import annotations

from typing import Sequence

from ..coloring.runner import run_mw_coloring
from ..geometry.deployment import uniform_deployment
from .._validation import require_int
from ._units import grid_units, run_units

TITLE = "EXP-1: palette size vs Delta (Theorem 2, O(Delta) colors)"
COLUMNS = [
    "extent", "seed", "delta", "colors", "max_color", "bound",
    "colors_per_delta", "within_bound", "proper", "completed",
]
DEFAULT_EXTENTS = (9.0, 6.5, 5.0, 4.2)
DEFAULT_N = 100

#: Default sweep axes beyond ``seeds`` (axis -> values), mirroring the
#: ``units()`` defaults; empty when seeds are the only swept axis.
GRID = {"extent": DEFAULT_EXTENTS}

__all__ = [
    "COLUMNS",
    "GRID",
    "TITLE",
    "check",
    "run",
    "run_single",
    "units",
]


def run_single(seed: int, extent: float, n: int = DEFAULT_N) -> dict:
    """One deployment at the given density; returns one table row."""
    require_int("n", n, minimum=1)
    deployment = uniform_deployment(n, extent, seed=seed)
    result = run_mw_coloring(deployment, seed=seed + 100)
    return {
        "extent": extent,
        "seed": seed,
        "delta": result.constants.delta,
        "colors": result.num_colors,
        "max_color": result.max_color,
        "bound": result.palette_bound,
        "colors_per_delta": result.num_colors / result.constants.delta,
        "within_bound": result.max_color <= result.palette_bound,
        "proper": result.is_proper(),
        "completed": result.stats.completed,
    }


def units(
    seeds: Sequence[int] = (0, 1),
    extents: Sequence[float] = DEFAULT_EXTENTS,
    n: int = DEFAULT_N,
) -> list[dict]:
    """Shardable work units, in canonical ``run()`` row order."""
    return grid_units("run_single", {"extent": extents}, seeds, n=n)


def run(
    seeds: Sequence[int] = (0, 1),
    extents: Sequence[float] = DEFAULT_EXTENTS,
    n: int = DEFAULT_N,
) -> list[dict]:
    """The full density sweep."""
    return run_units(__name__, units(seeds, extents, n))


def check(rows: Sequence[dict]) -> None:
    """Theorem 2 palette criteria: bounded span, proper, linear in Delta."""
    assert rows, "no experiment rows"
    assert all(row["within_bound"] for row in rows), "palette bound violated"
    assert all(row["proper"] for row in rows), "improper coloring produced"
    ratios = [row["colors_per_delta"] for row in rows]
    assert max(ratios) <= 4.0, f"colors/Delta too large: {max(ratios)}"
    assert max(ratios) / max(min(ratios), 1e-9) <= 3.0, "colors/Delta not flat"
