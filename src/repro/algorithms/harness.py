"""The zoo's front door and its protocol adapter over the one run harness.

:func:`run_coloring_algorithm` runs any registered algorithm by name.
:func:`run_event_protocol` runs a protocol entry's ``build_nodes``
machines through :func:`repro.coloring.runner.run_protocol` — the same
function every MW run goes through — with the live Theorem 1 audit
always attached, so every protocol algorithm runs under *exactly* the
environment MW runs under and head-to-head rows are apples-to-apples.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..coloring.runner import run_protocol
from .base import (
    ColoringAlgorithm,
    ColoringRunResult,
    ColoringTask,
    ProtocolContext,
)
from .mw import MWColoring

__all__ = ["run_coloring_algorithm", "run_event_protocol"]


def run_coloring_algorithm(
    algorithm: str | ColoringAlgorithm,
    deployment: Any,
    params: Any = None,
    *,
    seed: int = 0,
    channel: str = "sinr",
    faults: Any = None,
    max_slots: int | None = None,
    telemetry: Any = None,
) -> ColoringRunResult:
    """One-call arena front door: run a registered algorithm by name.

    ``algorithm`` is a registry name (or an entry instance); everything
    else mirrors :func:`repro.coloring.runner.run_mw_coloring`'s
    surface (every entry runs on the dense SINR engine), so call sites
    migrate by adding one argument, and exports the run to
    ``telemetry.out`` when that is set.
    """
    from .registry import get_algorithm

    entry = (
        algorithm
        if isinstance(algorithm, ColoringAlgorithm)
        else get_algorithm(algorithm)
    )
    task = ColoringTask(
        deployment=deployment,
        params=params,
        seed=seed,
        channel=channel,
        faults=faults,
        max_slots=max_slots,
        telemetry=telemetry,
    )
    result = entry.run(task)
    if telemetry is not None and telemetry.out is not None:
        if not isinstance(entry, MWColoring):  # MW's runner exported already
            telemetry.meta.setdefault("algorithm", entry.name)
            telemetry.export("color", rows=[result.row()], summary=result.row())
    return result


def run_event_protocol(
    algorithm: ColoringAlgorithm, task: ColoringTask
) -> ColoringRunResult:
    """Run a protocol entry's node machines through the one run harness.

    The harness's live independence audit (the arena's conformance
    contract) travels on the result, and telemetry — when the task
    carries it — observes decisions exactly like the MW path does.
    """
    graph = task.graph()
    params = task.resolved_params()
    ctx = ProtocolContext(graph=graph, params=params, seed=task.seed)
    outcome = run_protocol(
        algorithm.name,
        graph,
        params,
        lambda listeners: algorithm.build_nodes(
            replace(ctx, decision_listeners=listeners)
        ),
        (
            task.max_slots
            if task.max_slots is not None
            else algorithm.slot_budget(ctx)
        ),
        seed=task.seed,
        channel=task.channel,
        faults=task.faults,
        telemetry=task.telemetry,
    )
    stats = outcome.stats
    convergence = (
        int(outcome.decision_slots.max(initial=0)) + 1
        if stats.completed
        else stats.slots_run
    )
    return ColoringRunResult(
        algorithm=algorithm.name,
        graph=graph,
        colors=outcome.colors,
        decision_slots=outcome.decision_slots,
        palette_bound=algorithm.palette_bound(ctx.delta),
        completed=stats.completed,
        convergence_slots=convergence,
        audit_violations=outcome.audit_violations,
        stats=stats,
        fault_events=outcome.fault_events,
    )
