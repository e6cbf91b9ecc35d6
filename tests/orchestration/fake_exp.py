"""A controllable fixture experiment for orchestration tests.

Shaped exactly like a real ``repro.experiments`` module (``TITLE``,
``COLUMNS``, ``units``, ``run_single``, ``run``, ``check``) but cheap and
steerable: units can be told to sleep (timeout tests), to fail their
first N attempts (retry tests) or to drop an execution marker file
(so tests can count which units actually ran across processes).

The failure/marker knobs ride inside unit kwargs, so they flow through
pickling to pool workers with no extra plumbing.
"""

from __future__ import annotations

import os
import time
import uuid
from typing import Sequence

from repro.experiments._units import grid_units, run_units

TITLE = "FAKE: orchestration fixture experiment"
COLUMNS = ["x", "seed", "value"]

__all__ = [
    "COLUMNS",
    "TITLE",
    "check",
    "count_marks",
    "run",
    "run_single",
    "units",
]


def _mark(directory: str, label: str) -> int:
    """Drop one uniquely named marker file; return how many exist for label."""
    os.makedirs(directory, exist_ok=True)
    name = f"{label}-{os.getpid()}-{uuid.uuid4().hex}"
    with open(os.path.join(directory, name), "w", encoding="utf-8"):
        pass
    return count_marks(directory, label)


def count_marks(directory: str, label: str = "") -> int:
    """How many marker files with the given label prefix exist."""
    if not os.path.isdir(directory):
        return 0
    return sum(1 for name in os.listdir(directory) if name.startswith(label))


def run_single(
    seed: int,
    x: int,
    sleep_s: float = 0.0,
    fail_first: int = 0,
    fail_dir: str | None = None,
    exec_dir: str | None = None,
) -> dict:
    """One deterministic row; optionally slow, flaky or execution-marked."""
    if exec_dir is not None:
        _mark(exec_dir, f"exec-x{x}-s{seed}")
    if sleep_s:
        time.sleep(sleep_s)
    if fail_first and fail_dir is not None:
        attempts = _mark(fail_dir, f"fail-x{x}-s{seed}")
        if attempts <= fail_first:
            raise RuntimeError(f"injected failure {attempts} for x={x} seed={seed}")
    return {"x": x, "seed": seed, "value": x * 10 + seed}


def units(
    seeds: Sequence[int] = (0, 1),
    xs: Sequence[int] = (1, 2, 3),
    **knobs,
) -> list[dict]:
    """Shardable work units, in canonical ``run()`` row order."""
    return grid_units("run_single", {"x": xs}, seeds, **knobs)


def run(seeds: Sequence[int] = (0, 1), xs: Sequence[int] = (1, 2, 3), **knobs) -> list[dict]:
    """The full grid, serially."""
    return run_units(__name__, units(seeds, xs, **knobs))


def check(rows: Sequence[dict]) -> None:
    """Every value is derivable from its coordinates."""
    assert rows, "no rows"
    assert all(row["value"] == row["x"] * 10 + row["seed"] for row in rows)
