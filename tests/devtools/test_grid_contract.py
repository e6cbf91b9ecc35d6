"""``units()`` is the one declaration of an experiment's sweep grid.

No other constant describes the default sweep, so these tests pin the
properties every consumer (``repro experiment``, ``repro sweep``, the
service) relies on directly on the units themselves: the plan the CLI
builds is the module's default grid, that grid is a full cross product,
seeds are never one of its axes, and every unit binds to the function
it names.
"""

from __future__ import annotations

import inspect
import math

import pytest

from repro.experiments import REGISTRY
from repro.orchestration import plan_sweep


def _by_func(units):
    grouped: dict[str, list[dict]] = {}
    for work in units:
        grouped.setdefault(work["func"], []).append(work["kwargs"])
    return grouped


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_grid_axes_match_default_units(name):
    module = REGISTRY[name]
    units = module.units()
    assert units, f"{name}: units() returned no work"
    # the CLI and the service plan exactly the module's default grid
    assert list(plan_sweep(name).units) == units
    for func, kwargs_list in _by_func(units).items():
        keys = set(kwargs_list[0])
        assert all(set(kwargs) == keys for kwargs in kwargs_list), (
            f"{name}.{func}: units disagree on their parameter names"
        )
        points = [tuple(repr(kwargs[key]) for key in sorted(keys))
                  for kwargs in kwargs_list]
        axes = [{point[i] for point in points} for i in range(len(keys))]
        # no duplicate point and no hole: a full cross product of the axes
        assert len(set(points)) == len(points), f"{name}.{func}: repeated unit"
        assert len(points) == math.prod(len(axis) for axis in axes), (
            f"{name}.{func}: default units are not a full grid"
        )


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_grid_never_declares_the_seed_axis(name):
    # seeds are orchestrated separately (units(seeds=...)); a grid that
    # also swept them would double-sweep
    module = REGISTRY[name]
    if "seeds" in inspect.signature(module.units).parameters:
        units = module.units(seeds=[7])
    else:
        units = module.units(seed=7)
    assert units
    assert all(work["kwargs"]["seed"] == 7 for work in units), (
        f"{name}: units() sweeps a seed it was not given"
    )


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_units_bind_to_their_function(name):
    # a unit whose kwargs do not fit its function would only fail once
    # a worker executes it; catch the mismatch at planning time
    module = REGISTRY[name]
    for work in module.units():
        signature = inspect.signature(getattr(module, work["func"]))
        signature.bind(**work["kwargs"])
