"""EXP-4 — Lemma 3: expected out-of-``I_u`` interference is bounded.

Per-slot interference decomposition at sampled receivers during live runs,
measured at several split radii to expose the ring-sum decay behind the
lemma (the literal ``R_I`` boundary exceeds laptop-scale deployments).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..coloring.runner import run_mw_coloring
from ..geometry.deployment import uniform_deployment
from ..sinr.interference import InterferenceMeter
from ..sinr.params import PhysicalParams
from ._units import grid_units

TITLE = "EXP-4: out-of-boundary interference vs Lemma 3 bound"
COLUMNS = [
    "boundary_rt", "mean_outside", "max_outside", "lemma3_bound",
    "mean_below_bound", "samples",
]
DEFAULT_BOUNDARIES = (2.0, 4.0, 8.0)

__all__ = ["COLUMNS", "TITLE", "check", "run_single", "units"]


class _MeterBank:
    """Slot observer feeding several split radii at once."""

    def __init__(self, meters):
        self.meters = meters

    def on_slot_end(self, slot, transmissions, deliveries):
        senders = np.asarray([t.sender for t in transmissions], dtype=np.intp)
        for meter in self.meters:
            meter.observe(senders)


def run_single(
    seed: int,
    params: PhysicalParams | None = None,
    boundaries: Sequence[float] = DEFAULT_BOUNDARIES,
) -> list[dict]:
    """One instrumented run; one row per split radius (plus the R_I row)."""
    if params is None:
        params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(90, 6.0, seed=seed)
    receivers = np.arange(0, 90, 11)
    meters = [
        InterferenceMeter(
            params=params,
            positions=deployment.positions,
            receivers=receivers,
            boundary=b,
        )
        for b in list(boundaries) + [params.r_i]
    ]
    result = run_mw_coloring(
        deployment, params, seed=seed + 70, observers=[_MeterBank(meters)]
    )
    assert result.stats.completed
    return [
        {
            "seed": seed,
            "boundary_rt": round(meter.boundary, 2),
            "mean_outside": meter.mean_outside(),
            "max_outside": meter.max_outside(),
            "lemma3_bound": meter.bound(),
            "mean_below_bound": meter.mean_outside() <= meter.bound(),
            "samples": meter.slots_observed,
        }
        for meter in meters
    ]


def units(
    seeds: Sequence[int] = (0, 1), params: PhysicalParams | None = None
) -> list[dict]:
    """The sweep as shardable work units, in canonical row order."""
    return grid_units("run_single", {}, seeds, params=params)


def check(rows: Sequence[dict]) -> None:
    """Lemma 3 criteria: bound respected everywhere, monotone decay."""
    assert rows, "no experiment rows"
    assert all(row["mean_below_bound"] for row in rows), "Lemma 3 bound exceeded"
    by_boundary: dict[float, list[float]] = {}
    for row in rows:
        by_boundary.setdefault(row["boundary_rt"], []).append(row["mean_outside"])
    means = [float(np.mean(v)) for _, v in sorted(by_boundary.items())]
    assert all(
        a >= b - 1e-12 for a, b in zip(means, means[1:])
    ), "outside interference did not decay with the boundary"
