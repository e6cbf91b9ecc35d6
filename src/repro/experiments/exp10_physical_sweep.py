"""EXP-10 — ablation over the physical constants (alpha, beta).

Tabulates the closed-form geometry (R_I, d, Lemma 3 bound) and audits
Theorem 3 end to end at every corner.
"""

from __future__ import annotations

from typing import Sequence

from ..algorithms.classical import greedy_coloring
from ..geometry.deployment import uniform_deployment
from ..graphs.power import power_graph
from ..graphs.udg import UnitDiskGraph
from ..mac.tdma import TDMASchedule
from ..invariants import verify_tdma_broadcast
from ..sinr.params import PhysicalParams
from ._units import grid_units

TITLE = "EXP-10: derived geometry and Theorem 3 across (alpha, beta)"
COLUMNS = [
    "alpha", "beta", "r_i_over_rt", "mac_d", "lemma3_bound",
    "tdma_d1_success", "tdma_thm3_success", "thm3_free",
]
DEFAULT_ALPHAS = (2.5, 3.0, 4.0, 6.0)
DEFAULT_BETAS = (1.0, 2.0)

__all__ = ["COLUMNS", "TITLE", "check", "run_single", "units"]


def run_single(alpha: float, beta: float, seed: int = 0, rho: float = 2.0) -> dict:
    """Geometry + Theorem 3 audit at one physical corner."""
    params = PhysicalParams(alpha=alpha, beta=beta, rho=rho).with_r_t(1.0)
    deployment = uniform_deployment(110, 6.5, seed=seed)
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    d = params.mac_distance
    free = verify_tdma_broadcast(
        graph, TDMASchedule(greedy_coloring(power_graph(graph, d + 1))), params
    )
    tight = verify_tdma_broadcast(
        graph, TDMASchedule(greedy_coloring(graph)), params
    )
    return {
        "alpha": alpha,
        "beta": beta,
        "r_i_over_rt": params.r_i / params.r_t,
        "mac_d": d,
        "lemma3_bound": params.outside_interference_bound,
        "tdma_d1_success": tight.success_rate,
        "tdma_thm3_success": free.success_rate,
        "thm3_free": free.interference_free,
    }


def units(
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    betas: Sequence[float] = DEFAULT_BETAS,
    seed: int = 0,
) -> list[dict]:
    """The sweep as shardable work units, in canonical row order."""
    return grid_units("run_single", {"alpha": alphas, "beta": betas}, [seed])


def check(rows: Sequence[dict]) -> None:
    """Theorem 3 at every corner; monotone geometry."""
    assert rows, "no experiment rows"
    assert all(row["thm3_free"] for row in rows), "Theorem 3 failed at a corner"
    assert all(
        row["tdma_d1_success"] < 1.0 for row in rows
    ), "distance-1 unexpectedly clean"
    betas = sorted({row["beta"] for row in rows})
    alphas = sorted({row["alpha"] for row in rows})
    for beta in betas:
        ds = [r["mac_d"] for r in rows if r["beta"] == beta]
        ris = [r["r_i_over_rt"] for r in rows if r["beta"] == beta]
        assert ds == sorted(ds, reverse=True), "d not decreasing with alpha"
        assert ris == sorted(ris, reverse=True), "R_I not decreasing with alpha"
    for alpha in alphas:
        ds = [r["mac_d"] for r in rows if r["alpha"] == alpha]
        assert ds == sorted(ds), "d not increasing with beta"
