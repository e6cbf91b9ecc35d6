"""EXP-6 — Corollary 1: simulating uniform algorithms under SINR.

Three classic uniform algorithms run natively and via single-round
simulation over the coloring-based TDMA; the claim holds when outputs,
round counts and the slots = tau * V cost structure all match with zero
lost deliveries.
"""

from __future__ import annotations

from typing import Sequence

from ..algorithms.classical import greedy_coloring
from ..geometry.deployment import uniform_deployment
from ..graphs.power import power_graph
from ..graphs.udg import UnitDiskGraph
from ..mac.srs import simulate_uniform_algorithm
from ..mac.tdma import TDMASchedule
from ..messaging.algorithms import (
    BFSTreeAlgorithm,
    FloodingBroadcast,
    MaxIdLeaderElection,
)
from ..messaging.model import run_uniform_rounds
from ..sinr.params import PhysicalParams
from ._units import grid_units

TITLE = "EXP-6: single-round simulation under SINR (Corollary 1)"
COLUMNS = [
    "algorithm", "seed", "delta", "frame_slots", "native_rounds",
    "srs_rounds", "srs_slots", "lost", "outputs_equal", "halted",
]
ALGORITHMS = {
    "flooding": lambda n: [FloodingBroadcast(source=0) for _ in range(n)],
    "bfs-tree": lambda n: [BFSTreeAlgorithm(root=0) for _ in range(n)],
    "leader-election": lambda n: [MaxIdLeaderElection(rounds=25) for _ in range(n)],
}

__all__ = ["COLUMNS", "TITLE", "check", "run_single", "units"]


def _outputs_equivalent(algorithm, graph, simulated, native) -> bool:
    """Algorithm-appropriate output equality.

    A BFS tree is unique only up to parent tie-breaking (delivery order
    within a round is engine-dependent), so it compares depths and parent
    validity; the other algorithms have unique outputs.
    """
    if algorithm != "bfs-tree":
        return simulated == native
    depth_of = {node: out[1] for node, out in enumerate(native) if out is not None}
    for node, out in enumerate(simulated):
        expected = native[node]
        if (out is None) != (expected is None):
            return False
        if out is None:
            continue
        parent, depth = out
        if depth != expected[1]:
            return False
        if node != parent and depth > 0:
            if not graph.has_edge(node, int(parent)):
                return False
            if depth_of.get(int(parent)) != depth - 1:
                return False
    return True


def run_single(
    seed: int, algorithm: str, params: PhysicalParams | None = None
) -> dict | None:
    """One algorithm, native vs SRS; None if the deployment is disconnected."""
    if params is None:
        params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(100, 6.0, seed=24 + seed)
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    if not graph.is_connected():
        return None
    coloring = greedy_coloring(power_graph(graph, params.mac_distance + 1))
    schedule = TDMASchedule(coloring)
    simulated = ALGORITHMS[algorithm](graph.n)
    report = simulate_uniform_algorithm(
        graph, simulated, schedule, params, max_rounds=120
    )
    native = ALGORITHMS[algorithm](graph.n)
    native_report = run_uniform_rounds(graph, native, max_rounds=120)
    return {
        "algorithm": algorithm,
        "seed": seed,
        "delta": graph.max_degree,
        "frame_slots": schedule.frame_length,
        "native_rounds": native_report.rounds,
        "srs_rounds": report.rounds,
        "srs_slots": report.slots,
        "lost": report.lost_deliveries,
        "outputs_equal": _outputs_equivalent(
            algorithm, graph, list(report.outputs), [a.output() for a in native]
        ),
        "halted": report.halted,
    }


def units(
    seeds: Sequence[int] = (0,),
    algorithms: Sequence[str] = tuple(ALGORITHMS),
    params: PhysicalParams | None = None,
) -> list[dict]:
    """The sweep as shardable work units, in canonical row order."""
    return grid_units("run_single", {"algorithm": algorithms}, seeds, params=params)


def check(rows: Sequence[dict]) -> None:
    """Corollary 1 criteria: exact, lossless, slots = tau * V."""
    assert rows, "no experiment rows"
    assert all(row["outputs_equal"] for row in rows), "simulation diverged"
    assert all(row["lost"] == 0 for row in rows), "deliveries lost"
    assert all(row["halted"] for row in rows), "an algorithm did not halt"
    assert all(row["srs_rounds"] == row["native_rounds"] for row in rows)
    assert all(
        row["srs_slots"] == row["srs_rounds"] * row["frame_slots"] for row in rows
    )
