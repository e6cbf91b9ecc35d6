"""EXP-13 bench — thin harness over :mod:`repro.experiments.exp13_wakeup_patterns`."""

from __future__ import annotations

from conftest import once

from repro.experiments import exp13_wakeup_patterns as exp
from repro.experiments import run_units

SEEDS = [0, 1]


def test_exp13_wakeup_patterns(benchmark, emit_table):
    rows = run_units(
        exp.__name__, exp.units(seeds=SEEDS, patterns=["synchronous", "staggered"])
    )
    rows.append(once(benchmark, exp.run_single, SEEDS[0], "random"))
    rows.append(exp.run_single(SEEDS[1], "random"))
    emit_table(
        "exp13_wakeup_patterns", rows, columns=exp.COLUMNS, title=exp.TITLE
    )
    exp.check(rows)
