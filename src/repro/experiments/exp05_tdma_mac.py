"""EXP-5 — Theorem 3: which coloring distance buys interference-free TDMA?

Full-frame audits of greedy distance-k colorings for k in {1, 2, d+1}
plus the slotted-ALOHA baseline.  The claim holds when distance-1 and
distance-2 frames lose deliveries while the Theorem 3 distance serves
every (sender, neighbor) pair.
"""

from __future__ import annotations

from typing import Sequence

from ..algorithms.classical import greedy_coloring
from ..geometry.deployment import uniform_deployment
from ..graphs.power import power_graph
from ..graphs.udg import UnitDiskGraph
from ..mac.aloha import run_slotted_aloha
from ..mac.tdma import TDMASchedule
from ..invariants import verify_tdma_broadcast
from ..sinr.params import PhysicalParams
from ._units import grid_units

TITLE = "EXP-5: TDMA audit (Theorem 3)"
COLUMNS = [
    "seed", "scheme", "delta", "frame_slots", "pairs", "served",
    "success", "interference_free",
]
DEFAULT_N = 130
DEFAULT_EXTENT = 7.0

__all__ = ["COLUMNS", "TITLE", "check", "run_single", "units"]


def _audit_distance(graph, params, k: float) -> dict:
    coloring = greedy_coloring(power_graph(graph, k))
    schedule = TDMASchedule(coloring)
    report = verify_tdma_broadcast(graph, schedule, params)
    return {
        "scheme": f"tdma-dist-{k:g}",
        "frame_slots": schedule.frame_length,
        "pairs": report.expected,
        "served": report.delivered,
        "success": report.success_rate,
        "interference_free": report.interference_free,
    }


def run_single(
    seed: int,
    params: PhysicalParams | None = None,
    n: int = DEFAULT_N,
    extent: float = DEFAULT_EXTENT,
) -> list[dict]:
    """All four schemes on one deployment; returns one row per scheme."""
    if params is None:
        params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(n, extent, seed=seed)
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    d = params.mac_distance
    rows = [_audit_distance(graph, params, k) for k in (1.0, 2.0, d + 1)]
    aloha = run_slotted_aloha(
        graph, params, probability=1.0 / max(1, graph.max_degree),
        max_slots=30_000, seed=seed,
    )
    rows.append(
        {
            "scheme": "slotted-aloha",
            "frame_slots": aloha.slots_run,
            "pairs": aloha.total_pairs,
            "served": aloha.served_pairs,
            "success": aloha.coverage,
            "interference_free": False,
        }
    )
    for row in rows:
        row["seed"] = seed
        row["delta"] = graph.max_degree
    return rows


def units(
    seeds: Sequence[int] = (0, 1), params: PhysicalParams | None = None
) -> list[dict]:
    """The sweep as shardable work units, in canonical row order."""
    return grid_units("run_single", {}, seeds, params=params)


def check(rows: Sequence[dict]) -> None:
    """Theorem 3 criteria including the negative halves."""
    assert rows, "no experiment rows"
    dist1 = [r for r in rows if r["scheme"] == "tdma-dist-1"]
    dist2 = [r for r in rows if r["scheme"] == "tdma-dist-2"]
    theorem3 = [
        r
        for r in rows
        if r["scheme"].startswith("tdma-dist-") and r not in dist1 + dist2
    ]
    assert dist1 and dist2 and theorem3, "missing schemes"
    assert all(not r["interference_free"] for r in dist1), "distance-1 passed?!"
    assert all(not r["interference_free"] for r in dist2), "distance-2 passed?!"
    assert all(r["interference_free"] for r in theorem3), "Theorem 3 frame lost pairs"
    for seed in {r["seed"] for r in rows}:
        r1 = next(r for r in dist1 if r["seed"] == seed)
        r2 = next(r for r in dist2 if r["seed"] == seed)
        r3 = next(r for r in theorem3 if r["seed"] == seed)
        assert r1["success"] < r2["success"] < r3["success"] == 1.0
