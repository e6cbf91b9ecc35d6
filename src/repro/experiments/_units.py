"""Shardable work units for the experiment modules.

Every experiment exposes ``units(...)`` — the sweep decomposed into
independent single-configuration calls, in canonical row order, and the
only definition of the sweep.  :func:`run_units` executes the units in
order; the orchestration layer (:mod:`repro.orchestration`) ships the
same units to worker processes and merges the results back in unit
order, so serial/parallel parity holds by construction.

A unit is a plain dict — ``{"func": <module attribute>, "kwargs": {...}}``
— so it pickles to worker processes and hashes into a run-store key
without any custom machinery.  :func:`grid_units` builds the common case
(a grid x seeds cross product) on top of
:func:`repro.analysis.sweep.enumerate_combos`, the single source of truth
for canonical sweep order.
"""

from __future__ import annotations

import importlib
from typing import Iterable, Mapping

from ..analysis.sweep import enumerate_combos

__all__ = ["expand_unit", "grid_units", "run_units", "unit"]


def unit(func: str, **kwargs) -> dict:
    """One work unit: call module attribute ``func`` with ``kwargs``."""
    return {"func": func, "kwargs": kwargs}


def grid_units(
    func: str,
    grid: Mapping[str, Iterable],
    seeds: Iterable[int],
    **constants,
) -> list[dict]:
    """Units for ``func`` over a grid x seeds sweep, in canonical order.

    ``constants`` are appended to every unit's kwargs (fixed parameters
    that are not sweep axes); ``None``-valued constants are dropped so
    default arguments stay defaults and unit hashes stay stable.
    """
    constants = {k: v for k, v in constants.items() if v is not None}
    return [
        unit(func, seed=seed, **combo, **constants)
        for combo, seed in enumerate_combos(grid, seeds)
    ]


def expand_unit(module_name: str, work: dict) -> list[dict]:
    """Execute one unit and normalise its result to a list of rows.

    ``None`` (a skipped configuration) becomes the empty list; a single
    row dict becomes a one-row list.
    """
    module = importlib.import_module(module_name)
    produced = getattr(module, work["func"])(**work["kwargs"])
    if produced is None:
        return []
    if isinstance(produced, dict):
        return [produced]
    return list(produced)


def run_units(module_name: str, units: Iterable[dict]) -> list[dict]:
    """Execute ``units`` in order and concatenate their rows.

    The serial way to run an experiment:
    ``run_units(exp.__name__, exp.units(...))``.  The parallel path
    executes the same units shard by shard and merges in the same order.
    """
    rows: list[dict] = []
    for work in units:
        rows.extend(expand_unit(module_name, work))
    return rows
