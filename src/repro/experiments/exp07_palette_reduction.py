"""EXP-7 — Section V palette reduction to ``Delta + 1`` colors over SINR.

The announcements physically broadcast over the SINR channel; the claim
holds when nothing is lost (Theorem 3 protecting the traffic) and the
output palette fits in ``{0 .. Delta}``.
"""

from __future__ import annotations

from typing import Sequence

from ..algorithms.classical import greedy_coloring
from ..coloring.palette import reduce_palette_simulated
from ..geometry.deployment import uniform_deployment
from ..graphs.power import power_graph
from ..graphs.udg import UnitDiskGraph
from ..sinr.params import PhysicalParams
from ._units import grid_units

TITLE = "EXP-7: palette reduction to Delta+1 over SINR (Section V)"
COLUMNS = [
    "seed", "delta", "input_colors", "output_colors", "output_max_color",
    "delta_plus_1", "slots", "lost", "proper",
]

__all__ = ["COLUMNS", "TITLE", "check", "run_single", "units"]


def run_single(seed: int, params: PhysicalParams | None = None) -> dict:
    """One reduction pass on a fresh deployment."""
    if params is None:
        params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(110, 6.5, seed=seed)
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    wide = greedy_coloring(power_graph(graph, params.mac_distance + 1))
    report = reduce_palette_simulated(graph, wide, params)
    return {
        "seed": seed,
        "delta": graph.max_degree,
        "input_colors": wide.num_colors,
        "output_colors": report.coloring.num_colors,
        "output_max_color": report.coloring.max_color,
        "delta_plus_1": graph.max_degree + 1,
        "slots": report.slots_used,
        "lost": report.lost,
        "proper": report.coloring.is_valid(graph.positions, graph.radius),
    }


def units(
    seeds: Sequence[int] = (0, 1, 2), params: PhysicalParams | None = None
) -> list[dict]:
    """The sweep as shardable work units, in canonical row order."""
    return grid_units("run_single", {}, seeds, params=params)


def check(rows: Sequence[dict]) -> None:
    """Section V criteria: lossless, proper, palette within Delta+1."""
    assert rows, "no experiment rows"
    assert all(row["lost"] == 0 for row in rows), "announcements lost"
    assert all(row["proper"] for row in rows), "reduced coloring improper"
    assert all(
        row["output_max_color"] <= row["delta"] for row in rows
    ), "palette exceeds Delta+1"
    assert all(
        row["output_colors"] < row["input_colors"] for row in rows
    ), "no reduction achieved"
