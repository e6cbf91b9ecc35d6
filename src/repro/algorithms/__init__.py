"""The algorithm zoo: competitor colorings behind one protocol.

Every entry implements :class:`~repro.algorithms.base.ColoringAlgorithm`
(``name``, ``palette_bound(delta)``, ``run(task)`` and — for SINR
protocols — per-node state machines for the event-driven engine) and
registers itself on import, so this package's import is
the single switch that populates the registry:

* ``mw`` — the paper's Moscibroda-Wattenhofer coloring (the reference
  entry); every SINR protocol, this one included, runs through the one
  harness :func:`repro.coloring.runner.run_protocol`;
* ``fuchs_prutkin`` — the simple ``Delta+1`` SINR coloring of Fuchs and
  Prutkin (arXiv:1502.02426), ``O(Delta log n)`` slots;
* ``kuhn_multicolor`` — Kuhn's constant-time local multicoloring
  (arXiv:0902.1868) as a TDMA-schedule producer for the ``mac/``
  verify path;
* ``greedy`` / ``luby`` — the interference-free baselines
  (:mod:`repro.algorithms.classical`), registered as yardsticks.

See docs/ALGORITHMS.md for the catalogue with bounds, EXP-14 for the
head-to-head arena, and tests/arena/ for the conformance contract every
entry must satisfy.
"""

from __future__ import annotations

from . import classical, fuchs_prutkin, kuhn, mw  # noqa: F401  (registration imports)
from .base import (
    ColoringAlgorithm,
    ColoringRunResult,
    ColoringTask,
    ProtocolContext,
)
from .classical import GreedyBaseline, LubyBaseline
from .fuchs_prutkin import FPColoring, FPColoringNode
from .harness import run_coloring_algorithm, run_event_protocol
from .kuhn import KuhnMulticolor, local_multicoloring
from .mw import MWColoring
from .registry import (
    algorithm_names,
    all_algorithms,
    get_algorithm,
    register_algorithm,
)

__all__ = [
    "ColoringAlgorithm",
    "ColoringRunResult",
    "ColoringTask",
    "FPColoring",
    "FPColoringNode",
    "GreedyBaseline",
    "KuhnMulticolor",
    "LubyBaseline",
    "MWColoring",
    "ProtocolContext",
    "algorithm_names",
    "all_algorithms",
    "get_algorithm",
    "local_multicoloring",
    "register_algorithm",
    "run_coloring_algorithm",
    "run_event_protocol",
]
