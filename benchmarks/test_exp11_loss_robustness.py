"""EXP-11 bench — thin harness over :mod:`repro.experiments.exp11_loss_robustness`."""

from __future__ import annotations

from conftest import once

from repro.analysis.metrics import aggregate_rows
from repro.experiments import exp11_loss_robustness as exp
from repro.experiments import run_units

SEEDS = [0, 1]


def test_exp11_loss_robustness(benchmark, emit_table):
    rows = run_units(exp.__name__, exp.units(seeds=SEEDS, drops=exp.DEFAULT_DROPS[1:]))
    rows.append(once(benchmark, exp.run_single, SEEDS[0], exp.DEFAULT_DROPS[0]))
    rows.append(exp.run_single(SEEDS[1], exp.DEFAULT_DROPS[0]))
    table = aggregate_rows(rows, group_by=["drop"], values=["slots", "ok"])
    emit_table(
        "exp11_loss_robustness",
        table,
        columns=["drop", "runs", "slots_mean", "ok_mean"],
        title=exp.TITLE,
    )
    exp.check(rows)
