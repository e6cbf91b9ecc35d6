"""EXP-8 — the headline: the same algorithm under SINR vs the graph model.

Identical node state machines over both channels; the claim holds when
both complete with proper colorings, clean audits, comparable palettes and
leader sets, and end-to-end slot counts within a small constant factor.
"""

from __future__ import annotations

from typing import Sequence

from .._validation import require_in
from ..coloring.runner import run_mw_coloring
from ..geometry.deployment import uniform_deployment
from ._units import grid_units

TITLE = "EXP-8: same MW algorithm, SINR vs graph-based channel"
COLUMNS = [
    "channel", "seed", "slots", "colors", "leaders", "proper",
    "clean_audit", "deliveries_per_tx", "completed",
]
CHANNELS = ("sinr", "graph")

__all__ = ["COLUMNS", "TITLE", "check", "run_single", "units"]


def run_single(seed: int, channel: str) -> dict:
    """One audited run over the given channel kind."""
    require_in("channel", channel, CHANNELS)
    deployment = uniform_deployment(90, 6.0, seed=seed)
    result = run_mw_coloring(
        deployment, seed=seed + 10, channel=channel
    )
    stats = result.stats
    return {
        "channel": channel,
        "seed": seed,
        "slots": result.slots_to_complete,
        "colors": result.num_colors,
        "leaders": len(result.leaders),
        "proper": result.is_proper(),
        "clean_audit": not result.audit_violations,
        "deliveries_per_tx": stats.deliveries / max(1, stats.transmissions),
        "completed": stats.completed,
    }


def units(
    seeds: Sequence[int] = (0, 1, 2), channels: Sequence[str] = CHANNELS
) -> list[dict]:
    """The sweep as shardable work units, in canonical row order."""
    return grid_units("run_single", {"channel": channels}, seeds)


def check(rows: Sequence[dict]) -> None:
    """Portability criteria: both models correct, cost within a band.

    The channels are incomparable per-transmission (capture effect vs
    exactly-one-neighbor), so the honest comparison is end-to-end.
    """
    assert rows, "no experiment rows"
    assert all(row["completed"] and row["proper"] for row in rows)
    assert all(row["clean_audit"] for row in rows)

    def mean(channel, key):
        bucket = [row[key] for row in rows if row["channel"] == channel]
        return sum(bucket) / len(bucket)

    ratio = mean("sinr", "slots") / mean("graph", "slots")
    assert 0.25 <= ratio <= 4.0, f"slot ratio out of band: {ratio:.2f}"
    assert abs(mean("sinr", "colors") - mean("graph", "colors")) <= 10
    assert abs(mean("sinr", "leaders") - mean("graph", "leaders")) <= 10
