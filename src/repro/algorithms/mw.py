"""MW coloring re-registered as the arena's reference entry.

``run`` calls :func:`repro.coloring.runner.run_mw_coloring`, which runs
through the one harness
(:func:`repro.coloring.runner.run_protocol`) like every other protocol
entry, so the arena row for ``mw`` is produced by the *same* code path
as ``repro color`` and every EXP-1..13 experiment — registering the
reference entry adds a view, not a second implementation.
:func:`mw_run_result` is that view: it maps an MW result to the arena's
common shape, keeping the run-exact palette bound from the measured
constants (``repro color`` applies it to its own ``run_mw_coloring``
call, which alone may pick the sparse resolver).
"""

from __future__ import annotations

import numpy as np

from ..analysis.theory import palette_bound
from ..coloring.result import MWColoringResult
from ..coloring.runner import run_mw_coloring
from .base import ColoringAlgorithm, ColoringRunResult, ColoringTask
from .registry import register_algorithm

__all__ = ["MWColoring", "mw_run_result"]

#: A-priori cap on ``phi(2R_T)``: points at pairwise distance > R_T
#: inside a disk of radius 2R_T pack radius-R_T/2 disks into a disk of
#: radius 2.5R_T, so at most (2.5 / 0.5)^2 = 25 fit.
_PHI_2RT_CAP = 25


@register_algorithm
class MWColoring(ColoringAlgorithm):
    """Moscibroda-Wattenhofer coloring (the paper's Algorithm 1-3)."""

    name = "mw"
    model = "sinr-protocol"

    def palette_bound(self, delta: int) -> int:
        """Theorem 2's ``(phi(2R_T) + 1) * (Delta + 1)`` at the packing cap.

        The run-exact bound on the result uses the deployment's measured
        ``phi(2R_T)`` (much smaller); this is the geometry-free worst
        case the entry promises for any unit-disk instance.
        """
        return palette_bound(_PHI_2RT_CAP, delta)

    def run(self, task: ColoringTask) -> ColoringRunResult:
        return mw_run_result(
            run_mw_coloring(
                task.deployment,
                task.params,
                seed=task.seed,
                channel=task.channel,
                max_slots=task.max_slots,
                telemetry=task.telemetry,
                faults=task.faults,
            )
        )


def mw_run_result(result: MWColoringResult) -> ColoringRunResult:
    """One MW run in the arena's common shape (undecided nodes read ``-1``)."""
    colors = np.where(
        result.decision_slots >= 0, result.coloring.colors, -1
    ).astype(np.int64)
    return ColoringRunResult(
        algorithm=MWColoring.name,
        graph=result.graph,
        colors=colors,
        decision_slots=result.decision_slots,
        palette_bound=result.palette_bound,
        completed=result.stats.completed,
        convergence_slots=result.slots_to_complete,
        audit_violations=result.audit_violations,
        stats=result.stats,
        fault_events=result.fault_events,
        extras={
            "leaders": int(len(result.leaders)),
            "phi_2rt": result.constants.phi_2rt,
        },
    )
