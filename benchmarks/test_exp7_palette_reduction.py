"""EXP-7 bench — thin harness over :mod:`repro.experiments.exp07_palette_reduction`."""

from __future__ import annotations

from conftest import once

from repro.experiments import exp07_palette_reduction as exp
from repro.experiments import run_units


def test_exp7_palette_reduction(benchmark, emit_table, params):
    rows = [once(benchmark, exp.run_single, 0, params)]
    rows += run_units(exp.__name__, exp.units(seeds=[1, 2], params=params))
    emit_table(
        "exp7_palette_reduction", rows, columns=exp.COLUMNS, title=exp.TITLE
    )
    exp.check(rows)
