"""The paper's contribution: MW node coloring under SINR.

* :mod:`repro.coloring.constants` — the Section II constants
  (lambda, lambda', sigma, gamma, eta, mu, q_s, q_l, zeta_i) with the three
  presets described in DESIGN.md (theoretical / scaled / practical).
* :mod:`repro.coloring.messages` — the three message families
  ``M_A^i(v, c_v)``, ``M_C^i(v[, w, tc])``, ``M_R(v, L(v))``.
* :mod:`repro.coloring.mw_node` — the node state machine of Figures 1-3.
* :mod:`repro.coloring.runner` — the one run harness every SINR protocol
  goes through, and the MW adapters over it.
* :mod:`repro.coloring.distance_d` — distance-d coloring via power boosting
  (Section V).
* :mod:`repro.coloring.palette` — palette reduction to Delta+1 colors.
"""

from __future__ import annotations

from .constants import AlgorithmConstants
from .distance_d import run_distance_d_coloring
from .messages import MsgA, MsgC, MsgR
from .mw_node import MWColoringNode, MWSharedConfig
from .palette import reduce_palette, reduce_palette_simulated
from .result import MWColoringResult
from .runner import run_mw_coloring

__all__ = [
    "AlgorithmConstants",
    "MWColoringNode",
    "MWColoringResult",
    "MWSharedConfig",
    "MsgA",
    "MsgC",
    "MsgR",
    "reduce_palette",
    "reduce_palette_simulated",
    "run_distance_d_coloring",
    "run_mw_coloring",
]
