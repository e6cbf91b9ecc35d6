"""One-call MAC bring-up: deployment -> verified TDMA schedule.

Glues the Section V pipeline together for downstream users:

1. run the MW coloring on the power-boosted physical layer to obtain a
   distance-``(d+1)`` coloring (``d`` = Theorem 3's MAC distance),
2. compact the sparse palette to a dense ``0..V-1`` range,
3. derive the TDMA frame,
4. audit a full frame under SINR (Theorem 3 says it must be clean).

Returns everything a MAC user needs, plus the audit so callers can assert
rather than trust.

Both the coloring run and the frame audit resolve slots through the shared
vectorised engine (:mod:`repro.sinr.engine`), which computes each slot's
distances afresh; a replayed frame costs the same on every pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..coloring.distance_d import run_distance_d_coloring
from ..coloring.result import MWColoringResult
from ..errors import ScheduleError
from ..geometry.deployment import Deployment
from ..graphs.coloring import Coloring
from ..graphs.udg import UnitDiskGraph
from ..invariants import MacVerificationReport, verify_tdma_broadcast
from ..sinr.params import PhysicalParams
from .tdma import TDMASchedule

__all__ = ["MacLayer", "build_mac_layer"]


@dataclass(frozen=True)
class MacLayer:
    """A ready-to-use coloring-based MAC layer.

    Attributes
    ----------
    graph:
        The radius-``R_T`` communication graph the schedule serves.
    coloring:
        The compacted distance-``(d+1)`` coloring behind the schedule.
    schedule:
        The TDMA frame (``frame_length == coloring.num_colors``).
    audit:
        Full-frame verification under SINR (Theorem 3's claim).
    coloring_run:
        The underlying distributed coloring execution, for inspection.
    """

    graph: UnitDiskGraph
    coloring: Coloring
    schedule: TDMASchedule
    audit: MacVerificationReport
    coloring_run: MWColoringResult

    @property
    def frame_length(self) -> int:
        """Slots per TDMA frame."""
        return self.schedule.frame_length

    @property
    def interference_free(self) -> bool:
        """Whether the audit confirmed Theorem 3 on this deployment."""
        return self.audit.interference_free


def build_mac_layer(
    deployment: Deployment,
    params: PhysicalParams,
    seed: int = 0,
    require_clean: bool = True,
    **runner_kwargs,
) -> MacLayer:
    """Build and audit a Theorem 3 MAC layer in one call.

    ``runner_kwargs`` forward to the coloring runner (``max_slots``,
    ``schedule``, ...).  With ``require_clean`` (default) a failed audit or
    an incomplete coloring run raises :class:`ScheduleError` — a MAC layer
    that silently drops messages is worse than none.
    """
    d = params.mac_distance
    run = run_distance_d_coloring(deployment, params, d=d + 1, seed=seed, **runner_kwargs)
    if require_clean and not run.stats.completed:
        raise ScheduleError(
            "distance-(d+1) coloring did not complete within its slot budget"
        )
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    coloring = run.coloring.compacted()
    schedule = TDMASchedule(coloring)
    audit = verify_tdma_broadcast(graph, schedule, params)
    if require_clean and not audit.interference_free:
        raise ScheduleError(
            f"TDMA audit failed: {audit.delivered}/{audit.expected} pairs served"
        )
    return MacLayer(
        graph=graph,
        coloring=coloring,
        schedule=schedule,
        audit=audit,
        coloring_run=run,
    )
