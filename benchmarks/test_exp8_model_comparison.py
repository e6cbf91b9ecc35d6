"""EXP-8 bench — thin harness over :mod:`repro.experiments.exp08_model_comparison`."""

from __future__ import annotations

from conftest import once

from repro.analysis.metrics import aggregate_rows
from repro.experiments import exp08_model_comparison as exp
from repro.experiments import run_units

SEEDS = [0, 1, 2]


def test_exp8_model_comparison(benchmark, emit_table):
    rows = run_units(exp.__name__, exp.units(seeds=SEEDS, channels=["graph"]))
    rows.append(once(benchmark, exp.run_single, SEEDS[0], "sinr"))
    for seed in SEEDS[1:]:
        rows.append(exp.run_single(seed, "sinr"))
    table = aggregate_rows(
        rows,
        group_by=["channel"],
        values=["slots", "colors", "leaders", "deliveries_per_tx"],
    )
    emit_table(
        "exp8_model_comparison",
        table,
        columns=[
            "channel", "runs", "slots_mean", "colors_mean", "leaders_mean",
            "deliveries_per_tx_mean",
        ],
        title=exp.TITLE,
    )
    exp.check(rows)
