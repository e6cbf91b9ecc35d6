"""EXP-12 — extension: coloring with probed (unknown) Delta.

The degree-probing protocol feeds the standard algorithm; the claim holds
when the estimate brackets the true Delta within the safety factor and the
downstream coloring keeps every invariant at bounded overhead.
"""

from __future__ import annotations

from typing import Sequence

from ..coloring.estimation import run_mw_coloring_estimated_delta
from ..coloring.runner import run_mw_coloring
from ..geometry.deployment import uniform_deployment
from ..graphs.udg import UnitDiskGraph
from ..sinr.params import PhysicalParams
from ._units import grid_units, run_units

TITLE = "EXP-12: coloring with probed Delta (unknown-Delta extension)"
COLUMNS = [
    "seed", "true_delta", "estimated_delta", "probe_slots", "known_slots",
    "unknown_slots", "overhead", "proper", "completed", "bracketed",
]

#: Default sweep axes beyond ``seeds`` (axis -> values), mirroring the
#: ``units()`` defaults; empty when seeds are the only swept axis.
GRID = {}

__all__ = ["COLUMNS", "GRID", "TITLE", "check", "run", "run_single", "units"]


def run_single(seed: int, params: PhysicalParams | None = None) -> dict:
    """One probed run against its known-Delta twin."""
    if params is None:
        params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(70, 5.5, seed=seed)
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    known = run_mw_coloring(deployment, params, seed=seed + 5)
    unknown, estimate = run_mw_coloring_estimated_delta(
        deployment, params, seed=seed + 5
    )
    return {
        "seed": seed,
        "true_delta": graph.max_degree,
        "estimated_delta": estimate.max_estimate,
        "probe_slots": estimate.slots_used,
        "known_slots": known.slots_to_complete,
        "unknown_slots": unknown.slots_to_complete,
        "overhead": unknown.slots_to_complete / max(1, known.slots_to_complete),
        "proper": unknown.is_proper(),
        "completed": unknown.stats.completed,
        "bracketed": graph.max_degree
        <= estimate.max_estimate
        <= 4 * graph.max_degree,
    }


def units(
    seeds: Sequence[int] = (0, 1, 2), params: PhysicalParams | None = None
) -> list[dict]:
    """Shardable work units, in canonical ``run()`` row order."""
    return grid_units("run_single", {}, seeds, params=params)


def run(
    seeds: Sequence[int] = (0, 1, 2), params: PhysicalParams | None = None
) -> list[dict]:
    """The full seed sweep."""
    return run_units(__name__, units(seeds, params))


def check(rows: Sequence[dict]) -> None:
    """Unknown-Delta criteria: bracketed estimate, invariants, bounded cost."""
    assert rows, "no experiment rows"
    assert all(row["proper"] and row["completed"] for row in rows)
    assert all(row["bracketed"] for row in rows), "estimate missed the bracket"
    assert all(row["overhead"] <= 6.0 for row in rows), "overhead unbounded"
