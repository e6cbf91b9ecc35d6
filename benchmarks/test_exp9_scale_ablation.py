"""EXP-9 bench — thin harness over :mod:`repro.experiments.exp09_scale_ablation`."""

from __future__ import annotations

from conftest import once

from repro.analysis.metrics import aggregate_rows
from repro.experiments import exp09_scale_ablation as exp
from repro.experiments import run_units

SEEDS = [0, 1, 2, 3]


def test_exp9_scale_ablation(benchmark, emit_table):
    rows = run_units(
        exp.__name__, exp.units(seeds=SEEDS, scales=exp.DEFAULT_SCALES[1:])
    )
    rows.append(once(benchmark, exp.run_single, SEEDS[0], exp.DEFAULT_SCALES[0]))
    for seed in SEEDS[1:]:
        rows.append(exp.run_single(seed, exp.DEFAULT_SCALES[0]))
    table = aggregate_rows(
        rows,
        group_by=["scale"],
        values=["violated", "improper", "violations", "slots"],
    )
    emit_table(
        "exp9_scale_ablation",
        table,
        columns=[
            "scale", "runs", "violated_mean", "improper_mean",
            "violations_mean", "slots_mean",
        ],
        title=exp.TITLE,
    )
    exp.check(rows)
