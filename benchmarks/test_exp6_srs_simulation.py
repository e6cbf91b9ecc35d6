"""EXP-6 bench — thin harness over :mod:`repro.experiments.exp06_srs_simulation`."""

from __future__ import annotations

from conftest import once

from repro.experiments import exp06_srs_simulation as exp
from repro.experiments import run_units


def test_exp6_srs_simulation(benchmark, emit_table, params):
    first = once(benchmark, exp.run_single, 0, "flooding", params)
    assert first is not None, "seed 24 must give a connected deployment"
    rows = [first]
    rows += run_units(exp.__name__, exp.units(
        seeds=[0], algorithms=["bfs-tree", "leader-election"], params=params
    ))
    rows += run_units(exp.__name__, exp.units(
        seeds=[2], algorithms=["flooding"], params=params
    ))
    emit_table(
        "exp6_srs_simulation", rows, columns=exp.COLUMNS, title=exp.TITLE
    )
    exp.check(rows)
