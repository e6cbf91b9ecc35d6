"""EXP-3 bench — thin harness over :mod:`repro.experiments.exp03_independence`."""

from __future__ import annotations

from conftest import once

from repro.experiments import exp03_independence as exp
from repro.experiments import run_units


def test_exp3_independence(benchmark, emit_table):
    rows = run_units(exp.__name__, exp.units(seeds=[0, 1, 2]))
    rows.append(once(benchmark, exp.run_single, 3, "uniform"))
    emit_table("exp3_independence", rows, columns=exp.COLUMNS, title=exp.TITLE)
    exp.check(rows)
