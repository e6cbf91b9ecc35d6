"""Analysis utilities: theoretical predictions, metrics, tables."""

from __future__ import annotations

from .energy import TransmissionCounter
from .metrics import aggregate_rows, coloring_row, fit_shape
from .protocol_stats import ProtocolStats, trace_statistics
from .render import render_coloring, render_deployment
from .spatial import LinkBudget, link_budget, link_budgets, weakest_links
from .tables import format_table, print_table
from .theory import (
    lemma3_interference_bound,
    mac_distance,
    palette_bound,
    simulation_slot_bound,
    time_bound_shape,
)

__all__ = [
    "LinkBudget",
    "ProtocolStats",
    "TransmissionCounter",
    "aggregate_rows",
    "coloring_row",
    "fit_shape",
    "format_table",
    "lemma3_interference_bound",
    "link_budget",
    "link_budgets",
    "mac_distance",
    "palette_bound",
    "print_table",
    "render_coloring",
    "render_deployment",
    "simulation_slot_bound",
    "time_bound_shape",
    "trace_statistics",
    "weakest_links",
]
