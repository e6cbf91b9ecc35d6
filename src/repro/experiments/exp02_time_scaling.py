"""EXP-2 — Theorem 2, running time: slots scale as O(Delta log n).

Two sweeps: n at (roughly) constant density, and density (Delta) at fixed
n.  The claim holds when slots / (Delta ln n) stays flat across both.
"""

from __future__ import annotations

import math
from typing import Sequence

from ..analysis.metrics import fit_shape
from ..analysis.theory import time_bound_shape
from ..coloring.runner import run_mw_coloring
from ..geometry.deployment import uniform_deployment
from ._units import grid_units

TITLE_VS_N = "EXP-2a: slots vs n at constant density (Theorem 2, ln n factor)"
TITLE_VS_DELTA = "EXP-2b: slots vs Delta at fixed n (Theorem 2, Delta factor)"
TITLE = TITLE_VS_N
COLUMNS = ["seed", "delta", "shape", "slots", "slots_per_shape", "completed", "proper"]
DENSITY = 100 / 36.0  # nodes per unit^2 of the n=100, extent-6 baseline

__all__ = [
    "COLUMNS",
    "TITLE",
    "TITLE_VS_DELTA",
    "TITLE_VS_N",
    "check",
    "run_single",
    "run_single_fixed_n",
    "units",
]


def run_single(seed: int, n: int) -> dict:
    """One run at constant density (extent grows with sqrt(n))."""
    extent = math.sqrt(n / DENSITY)
    deployment = uniform_deployment(n, extent, seed=seed)
    result = run_mw_coloring(deployment, seed=seed + 50)
    shape = time_bound_shape(result.constants.delta, n)
    return {
        "n": n,
        "seed": seed,
        "delta": result.constants.delta,
        "shape": shape,
        "slots": result.slots_to_complete,
        "slots_per_shape": result.slots_to_complete / shape,
        "completed": result.stats.completed,
        "proper": result.is_proper(),
    }


def run_single_fixed_n(seed: int, extent: float, n: int = 100) -> dict:
    """One run at fixed n with the given extent (Delta sweep axis)."""
    deployment = uniform_deployment(n, extent, seed=seed)
    result = run_mw_coloring(deployment, seed=seed + 60)
    shape = time_bound_shape(result.constants.delta, n)
    return {
        "extent": extent,
        "seed": seed,
        "delta": result.constants.delta,
        "shape": shape,
        "slots": result.slots_to_complete,
        "slots_per_shape": result.slots_to_complete / shape,
        "completed": result.stats.completed,
        "proper": result.is_proper(),
    }


def units(
    seeds: Sequence[int] = (0, 1),
    ns: Sequence[int] = (50, 100, 200),
    extents: Sequence[float] = (9.0, 6.5, 5.0),
) -> list[dict]:
    """The sweep as shardable work units, in canonical row order."""
    return grid_units("run_single", {"n": ns}, seeds) + grid_units(
        "run_single_fixed_n", {"extent": extents}, seeds
    )


def check(rows: Sequence[dict]) -> None:
    """Theorem 2 time criterion: the Delta ln n shape explains the data."""
    assert rows, "no experiment rows"
    assert all(row["completed"] and row["proper"] for row in rows)
    constant, spread = fit_shape(rows, "shape", "slots")
    assert constant > 0
    assert spread <= 3.0, f"slots/(Delta ln n) not flat: spread {spread:.2f}x"
