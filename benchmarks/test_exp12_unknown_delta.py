"""EXP-12 bench — thin harness over :mod:`repro.experiments.exp12_unknown_delta`."""

from __future__ import annotations

from conftest import once

from repro.experiments import exp12_unknown_delta as exp
from repro.experiments import run_units

SEEDS = [0, 1, 2]


def test_exp12_unknown_delta(benchmark, emit_table):
    rows = [once(benchmark, exp.run_single, SEEDS[0])]
    rows += run_units(exp.__name__, exp.units(seeds=SEEDS[1:]))
    emit_table(
        "exp12_unknown_delta", rows, columns=exp.COLUMNS, title=exp.TITLE
    )
    exp.check(rows)
