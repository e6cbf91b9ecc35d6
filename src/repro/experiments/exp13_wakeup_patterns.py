"""EXP-13 — the asynchronous wake-up property (Section II / III).

Identical deployments under synchronous / random / staggered wake-up; the
per-node time (decision slot minus own wake slot) must stay in one band
while the makespan absorbs the wake-up window.  Each pattern is expressed
as a :class:`~repro.faults.WakeupSpec` inside a fault plan handed to the
run harness — this experiment is a thin fault-plan configuration, and
extra fault models layer on via the ``faults`` unit constant.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .._validation import require_in
from ..coloring.runner import run_mw_coloring
from ..faults.plan import FaultPlan, WakeupSpec
from ..geometry.deployment import uniform_deployment
from ..sinr.params import PhysicalParams
from ._units import grid_units, run_units

TITLE = "EXP-13: asynchronous wake-up (per-node time vs makespan)"
COLUMNS = [
    "pattern", "seed", "makespan", "per_node_mean", "per_node_max",
    "proper", "clean", "completed",
]
PATTERNS = ("synchronous", "random", "staggered")
DEFAULT_N = 80

#: Default sweep axes beyond ``seeds`` (axis -> values), mirroring the
#: ``units()`` defaults; empty when seeds are the only swept axis.
GRID = {"pattern": PATTERNS}

__all__ = ["COLUMNS", "GRID", "TITLE", "check", "run", "run_single", "units"]


def _make_spec(pattern: str, seed: int) -> WakeupSpec:
    """The historical pattern parameters, as a declarative wake-up spec."""
    if pattern == "synchronous":
        return WakeupSpec()
    if pattern == "random":
        return WakeupSpec(pattern="random", max_delay=3000, seed=seed)
    return WakeupSpec(pattern="staggered", interval=40)


def run_single(
    seed: int,
    pattern: str,
    params: PhysicalParams | None = None,
    n: int = DEFAULT_N,
    faults: Mapping | FaultPlan | None = None,
) -> dict:
    """One audited run under the given wake-up pattern."""
    require_in("pattern", pattern, PATTERNS)
    if params is None:
        params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(n, 5.5, seed=seed)
    plan = FaultPlan(wakeup=_make_spec(pattern, seed))
    if faults is not None:
        plan = plan.merge(FaultPlan.coerce(faults))
    result = run_mw_coloring(
        deployment, params, seed=seed + 20, faults=plan
    )
    # The same schedule the harness materialised from the plan's spec
    # (pattern seeds are carried in the spec, so this is exact).
    schedule = plan.wakeup.schedule(n, seed + 20)
    per_node = result.decision_slots - schedule.wake_slots
    return {
        "pattern": pattern,
        "seed": seed,
        "makespan": result.slots_to_complete,
        "per_node_mean": float(per_node.mean()),
        "per_node_max": int(per_node.max()),
        "proper": result.is_proper(),
        "clean": not result.audit_violations,
        "completed": result.stats.completed,
    }


def units(
    seeds: Sequence[int] = (0, 1),
    patterns: Sequence[str] = PATTERNS,
    params: PhysicalParams | None = None,
    faults: Mapping | None = None,
) -> list[dict]:
    """Shardable work units, in canonical ``run()`` row order."""
    return grid_units(
        "run_single", {"pattern": patterns}, seeds, params=params, faults=faults
    )


def run(
    seeds: Sequence[int] = (0, 1),
    patterns: Sequence[str] = PATTERNS,
    params: PhysicalParams | None = None,
    faults: Mapping | None = None,
) -> list[dict]:
    """The full pattern x seed grid."""
    return run_units(__name__, units(seeds, patterns, params, faults))


def check(rows: Sequence[dict]) -> None:
    """Asynchrony criteria: all invariants, per-node band flat."""
    assert rows, "no experiment rows"
    assert all(
        row["proper"] and row["clean"] and row["completed"] for row in rows
    ), "an invariant failed under some wake-up pattern"
    per_pattern: dict[str, list[int]] = {}
    for row in rows:
        per_pattern.setdefault(row["pattern"], []).append(row["per_node_max"])
    maxima = {p: float(np.mean(v)) for p, v in per_pattern.items()}
    assert max(maxima.values()) / min(maxima.values()) <= 4.0, (
        f"per-node times diverge across patterns: {maxima}"
    )
