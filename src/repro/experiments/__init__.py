"""Programmatic experiment runners (EXP-1 .. EXP-14).

Every claim-validation experiment of EXPERIMENTS.md is available as a
library call, not only as a bench: each module exposes

* ``TITLE`` / ``COLUMNS`` — presentation metadata,
* ``run_single(seed, ...)`` — one configuration, one row (or row list),
* ``units(seeds=...)`` — the full sweep as a list of work units, the one
  definition of the experiment's grid,
* ``check(rows)`` — the claim's acceptance criteria (raises AssertionError
  with context when the measured shape contradicts the paper).

:func:`run_units` executes a unit list serially and
:func:`repro.orchestration.run_sharded` shards the same list over worker
processes.  The pytest benches under ``benchmarks/`` are thin harnesses
over these functions (they add wall-clock timing and persist the
tables); notebooks and scripts can call them directly:

    from repro.experiments import exp05_tdma_mac as exp5, run_units
    rows = run_units(exp5.__name__, exp5.units(seeds=[0, 1]))
    exp5.check(rows)

``REGISTRY`` maps experiment ids to modules for generic drivers (such as
the ``python -m repro experiment`` CLI command).
"""

from __future__ import annotations

from . import (
    exp01_colors_vs_delta,
    exp02_time_scaling,
    exp03_independence,
    exp04_interference_bound,
    exp05_tdma_mac,
    exp06_srs_simulation,
    exp07_palette_reduction,
    exp08_model_comparison,
    exp09_scale_ablation,
    exp10_physical_sweep,
    exp11_loss_robustness,
    exp12_unknown_delta,
    exp13_wakeup_patterns,
    exp14_arena,
)
from ._units import run_units

REGISTRY = {
    "exp1": exp01_colors_vs_delta,
    "exp2": exp02_time_scaling,
    "exp3": exp03_independence,
    "exp4": exp04_interference_bound,
    "exp5": exp05_tdma_mac,
    "exp6": exp06_srs_simulation,
    "exp7": exp07_palette_reduction,
    "exp8": exp08_model_comparison,
    "exp9": exp09_scale_ablation,
    "exp10": exp10_physical_sweep,
    "exp11": exp11_loss_robustness,
    "exp12": exp12_unknown_delta,
    "exp13": exp13_wakeup_patterns,
    "exp14": exp14_arena,
}

__all__ = [
    "REGISTRY",
    "exp01_colors_vs_delta",
    "exp02_time_scaling",
    "exp03_independence",
    "exp04_interference_bound",
    "exp05_tdma_mac",
    "exp06_srs_simulation",
    "exp07_palette_reduction",
    "exp08_model_comparison",
    "exp09_scale_ablation",
    "exp10_physical_sweep",
    "exp11_loss_robustness",
    "exp12_unknown_delta",
    "exp13_wakeup_patterns",
    "exp14_arena",
    "run_units",
]
