"""Shared fixtures and helpers for the experiment benches.

Every bench regenerates one experiment of EXPERIMENTS.md: it sweeps the
workload, prints the result table (run with ``-s`` to see it live), writes
the same table under ``benchmarks/results/``, and wraps a representative
unit of work in the pytest-benchmark fixture so ``--benchmark-only`` also
reports wall-clock cost.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro import PhysicalParams
from repro.analysis.tables import format_table
from repro.experiments import run_units

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

# REPRO_BENCH_JOBS=N routes bench sweeps through the orchestration layer
# (N worker processes); unset or 1 keeps the serial run_units() path.  Rows are
# identical either way — see docs/ORCHESTRATION.md.
BENCH_JOBS = int(os.environ.get("REPRO_BENCH_JOBS", "1"))


@pytest.fixture(scope="session")
def params() -> PhysicalParams:
    """Default physics normalised to R_T = 1."""
    return PhysicalParams().with_r_t(1.0)


@pytest.fixture(scope="session")
def emit_table():
    """Print an experiment table and persist it under benchmarks/results/."""

    RESULTS_DIR.mkdir(exist_ok=True)

    def emit(name: str, rows, columns=None, title=None) -> str:
        text = format_table(rows, columns=columns, title=title or name)
        print("\n" + text)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        return text

    return emit


@pytest.fixture(scope="session")
def sweep_rows():
    """Run an experiment sweep, sharded across REPRO_BENCH_JOBS workers.

    With the default of one job this is exactly
    ``run_units(module.__name__, module.units(**kwargs))``;
    with more it dispatches the same unit list through ``run_sharded`` and
    returns the merged rows, which the determinism contract guarantees to
    be identical.
    """

    def run(module, experiment: str, **unit_kwargs):
        if BENCH_JOBS <= 1:
            return run_units(module.__name__, module.units(**unit_kwargs))
        from repro.orchestration import merged_rows, run_sharded

        result = run_sharded(
            experiment, jobs=BENCH_JOBS, unit_kwargs=unit_kwargs
        )
        return merged_rows(result)

    return run


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer.

    Protocol runs take seconds; pytest-benchmark's auto-calibration would
    repeat them dozens of times.  One timed round is the right trade.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
