"""Shared fixtures.

Full MW coloring runs cost seconds; the session-scoped fixtures here run
them once and let every integration test inspect the same result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    PhysicalParams,
    UnitDiskGraph,
    uniform_deployment,
)
from repro.coloring.runner import run_mw_coloring
from repro.invariants import IndependenceAuditor


@pytest.fixture(scope="session")
def params() -> PhysicalParams:
    """Default physics normalised to R_T = 1 (coordinates in range units)."""
    return PhysicalParams().with_r_t(1.0)


@pytest.fixture(scope="session")
def small_deployment():
    """A 60-node deployment small enough for second-scale protocol runs."""
    return uniform_deployment(n=60, extent=5.0, seed=11)


@pytest.fixture(scope="session")
def small_graph(small_deployment, params) -> UnitDiskGraph:
    """UDG of the small deployment at communication range."""
    return UnitDiskGraph(small_deployment.positions, params.r_t)


@pytest.fixture(scope="session")
def mw_run(small_deployment, params):
    """One MW coloring run shared by the integration tests, with a second
    auditor of its own in ``decision_listeners`` beside the run's."""
    auditor = IndependenceAuditor(
        positions=small_deployment.positions, radius=params.r_t
    )
    result = run_mw_coloring(
        small_deployment, params, seed=2, trace=True,
        decision_listeners=[auditor.on_decision],
    )
    return result, auditor


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)


def mutate_file(path, mode: str, seed: int) -> bool:
    """Deterministically corrupt an on-disk artifact for fuzz tests.

    ``mode`` picks one corruption family; the generator seeded with
    ``seed`` picks where it lands, so every failure reproduces from the
    (mode, seed) pair alone.  Returns False when the file is too small
    for the requested mode (caller should skip that case, not fail).

    =============  ======================================================
    ``truncate``     cut the file mid-byte (killed-run tail)
    ``flip``         flip one bit of one byte (disk/transfer corruption)
    ``delete_line``  drop one whole line (partial copy)
    ``dup_line``     duplicate one line in place (retry artifact)
    ``garbage``      overwrite one line with non-JSON text
    =============  ======================================================
    """
    import pathlib

    path = pathlib.Path(path)
    gen = np.random.default_rng(seed)
    raw = path.read_bytes()
    if mode == "truncate":
        if len(raw) < 2:
            return False
        cut = int(gen.integers(1, len(raw)))
        path.write_bytes(raw[:cut])
        return True
    if mode == "flip":
        if not raw:
            return False
        at = int(gen.integers(0, len(raw)))
        bit = 1 << int(gen.integers(0, 8))
        path.write_bytes(raw[:at] + bytes([raw[at] ^ bit]) + raw[at + 1:])
        return True
    lines = raw.decode("utf-8", errors="surrogateescape").splitlines(keepends=True)
    if not lines:
        return False
    at = int(gen.integers(0, len(lines)))
    if mode == "delete_line":
        del lines[at]
    elif mode == "dup_line":
        lines.insert(at, lines[at])
    elif mode == "garbage":
        lines[at] = "{not json" + str(int(gen.integers(0, 1000))) + "\n"
    else:
        raise ValueError(f"unknown mutation mode {mode!r}")
    path.write_text(
        "".join(lines), encoding="utf-8", errors="surrogateescape"
    )
    return True


#: Every corruption family ``mutate_file`` implements.
MUTATION_MODES = ("truncate", "flip", "delete_line", "dup_line", "garbage")
