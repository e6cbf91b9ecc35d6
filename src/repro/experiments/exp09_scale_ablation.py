"""EXP-9 — ablation: shrink the algorithm constants until guarantees break.

All four time coefficients (gamma, sigma, eta, mu) are multiplied by a
scale factor (probabilities untouched); the experiment maps the failure
cliff that justifies the practical preset.
"""

from __future__ import annotations

from typing import Sequence

from ..coloring.runner import build_constants, run_mw_coloring
from ..geometry.deployment import uniform_deployment
from ..graphs.udg import UnitDiskGraph
from ..sinr.params import PhysicalParams
from ._units import grid_units

TITLE = "EXP-9: constant-scale ablation (failure rate vs time saved)"
COLUMNS = [
    "scale", "seed", "violations", "violated", "proper", "improper",
    "slots", "completed",
]
DEFAULT_SCALES = (1.0, 0.5, 0.25, 0.12)

__all__ = ["COLUMNS", "DEFAULT_SCALES", "TITLE", "check", "run_single", "units"]


def run_single(
    seed: int, scale: float, params: PhysicalParams | None = None
) -> dict:
    """One run with all time coefficients multiplied by ``scale``."""
    if params is None:
        params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(70, 5.5, seed=seed)
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    constants = build_constants("practical", graph, params, graph.n).scaled(scale)
    result = run_mw_coloring(
        deployment, params, constants=constants, seed=seed + 90
    )
    return {
        "scale": scale,
        "seed": seed,
        "violations": len(result.audit_violations),
        "violated": bool(result.audit_violations),
        "proper": result.is_proper(),
        "improper": not result.is_proper(),
        "slots": result.slots_to_complete,
        "completed": result.stats.completed,
    }


def units(
    seeds: Sequence[int] = (0, 1, 2, 3),
    scales: Sequence[float] = DEFAULT_SCALES,
    params: PhysicalParams | None = None,
) -> list[dict]:
    """The sweep as shardable work units, in canonical row order."""
    return grid_units("run_single", {"scale": scales}, seeds, params=params)


def check(rows: Sequence[dict]) -> None:
    """Cliff criteria: clean at full scale, failures at the smallest scale,
    and time strictly bought by shrinking."""
    assert rows, "no experiment rows"
    scales = sorted({row["scale"] for row in rows})
    full = [row for row in rows if row["scale"] == max(scales)]
    tiny = [row for row in rows if row["scale"] == min(scales)]
    assert all(
        row["proper"] and not row["violated"] for row in full
    ), "failures at full scale"
    assert any(
        row["improper"] or row["violated"] for row in tiny
    ), "no failures even at the smallest scale — cliff not reached"

    def mean_slots(bucket):
        return sum(r["slots"] for r in bucket) / len(bucket)

    assert mean_slots(tiny) < mean_slots(full), "shrinking bought no time"
