"""EXP-11 — extension: robustness to unmodeled Bernoulli message loss.

Sweep the drop rate of an i.i.d. per-delivery eraser; the repetition
windows should absorb moderate loss for free.  The eraser is expressed
as a message-drop-only :class:`~repro.faults.FaultPlan` handed to the run
harness — this experiment is a thin fault-plan configuration, and extra
fault models layer on via the ``faults`` unit constant.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..coloring.runner import run_mw_coloring
from ..faults.plan import FaultPlan, MessageFaults
from ..geometry.deployment import uniform_deployment
from ..sinr.params import PhysicalParams
from ._units import grid_units, run_units

TITLE = "EXP-11: MW under injected Bernoulli loss (extension)"
COLUMNS = ["drop", "seed", "slots", "proper", "clean", "completed", "ok", "dropped"]
DEFAULT_DROPS = (0.0, 0.15, 0.3, 0.45)

#: Default sweep axes beyond ``seeds`` (axis -> values), mirroring the
#: ``units()`` defaults; empty when seeds are the only swept axis.
GRID = {"drop": DEFAULT_DROPS}

__all__ = ["COLUMNS", "GRID", "DEFAULT_DROPS", "TITLE", "check", "run", "run_single", "units"]


def run_single(
    seed: int,
    drop: float,
    params: PhysicalParams | None = None,
    faults: Mapping | FaultPlan | None = None,
) -> dict:
    """One audited run with the given injected drop rate.

    The plan seeds its own RNG with ``seed + 1`` (the historical loss
    seed, locked by the parity fixture); ``faults`` layers additional
    fault models on top of the swept drop rate.
    """
    if params is None:
        params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(70, 5.5, seed=seed)
    plan = FaultPlan(messages=MessageFaults(drop=drop), seed=seed + 1)
    if faults is not None:
        plan = plan.merge(FaultPlan.coerce(faults))
    result = run_mw_coloring(
        deployment, params, seed=seed + 40, faults=plan
    )
    events = result.fault_events or {}
    return {
        "drop": drop,
        "seed": seed,
        "slots": result.slots_to_complete,
        "proper": result.is_proper(),
        "clean": not result.audit_violations,
        "completed": result.stats.completed,
        "ok": (
            result.stats.completed
            and result.is_proper()
            and not result.audit_violations
        ),
        "dropped": int(events.get("dropped", 0)),
    }


def units(
    seeds: Sequence[int] = (0, 1),
    drops: Sequence[float] = DEFAULT_DROPS,
    params: PhysicalParams | None = None,
    faults: Mapping | None = None,
) -> list[dict]:
    """Shardable work units, in canonical ``run()`` row order."""
    return grid_units(
        "run_single", {"drop": drops}, seeds, params=params, faults=faults
    )


def run(
    seeds: Sequence[int] = (0, 1),
    drops: Sequence[float] = DEFAULT_DROPS,
    params: PhysicalParams | None = None,
    faults: Mapping | None = None,
) -> list[dict]:
    """The full drop x seed grid."""
    return run_units(__name__, units(seeds, drops, params, faults))


def check(rows: Sequence[dict]) -> None:
    """Robustness criteria: correct through 30% loss, time inflated."""
    assert rows, "no experiment rows"
    assert all(
        row["ok"] for row in rows if row["drop"] <= 0.3
    ), "failure at <= 30% injected loss"

    def mean_slots(drop):
        bucket = [r["slots"] for r in rows if r["drop"] == drop]
        return sum(bucket) / len(bucket)

    drops = sorted({row["drop"] for row in rows})
    assert mean_slots(drops[0]) <= mean_slots(0.3), "loss bought time?!"
