"""EXP-3 — Theorem 1: every color class stays independent at all times.

Live-audit every decision event across deployment families and seeds;
the claim holds when no violation is ever recorded at the default
practical constants.
"""

from __future__ import annotations

from typing import Sequence

from .._validation import require_in
from ..coloring.runner import run_mw_coloring
from ..geometry.deployment import clustered_deployment, uniform_deployment
from ._units import grid_units, run_units

TITLE = "EXP-3: Theorem 1 independence audit (violations per run)"
COLUMNS = [
    "family", "seed", "n", "delta", "decisions", "violations",
    "clean", "leaders", "completed",
]
FAMILIES = ("uniform", "clustered")

#: Default sweep axes beyond ``seeds`` (axis -> values), mirroring the
#: ``units()`` defaults; empty when seeds are the only swept axis.
GRID = {"family": FAMILIES}

__all__ = ["COLUMNS", "GRID", "TITLE", "check", "run", "run_single", "units"]


def run_single(seed: int, family: str) -> dict:
    """One audited run on the given deployment family."""
    require_in("family", family, FAMILIES)
    if family == "uniform":
        deployment = uniform_deployment(80, 5.5, seed=seed)
    else:
        deployment = clustered_deployment(
            clusters=7, points_per_cluster=11, extent=7.0,
            cluster_radius=0.6, seed=seed,
        )
    result = run_mw_coloring(deployment, seed=seed + 30)
    return {
        "family": family,
        "seed": seed,
        "n": result.n,
        "delta": result.constants.delta,
        "decisions": int((result.decision_slots >= 0).sum()),
        "violations": len(result.audit_violations),
        "clean": not result.audit_violations,
        "leaders": len(result.leaders),
        "completed": result.stats.completed,
    }


def units(
    seeds: Sequence[int] = (0, 1, 2),
    families: Sequence[str] = FAMILIES,
) -> list[dict]:
    """Shardable work units, in canonical ``run()`` row order."""
    return grid_units("run_single", {"family": families}, seeds)


def run(
    seeds: Sequence[int] = (0, 1, 2),
    families: Sequence[str] = FAMILIES,
) -> list[dict]:
    """The full family x seed sweep."""
    return run_units(__name__, units(seeds, families))


def check(rows: Sequence[dict]) -> None:
    """Theorem 1 criterion: completion with zero observed violations."""
    assert rows, "no experiment rows"
    assert all(row["completed"] for row in rows), "a run failed to complete"
    total = sum(row["violations"] for row in rows)
    assert total == 0, f"{total} independence violations observed"
