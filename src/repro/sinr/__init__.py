"""The SINR physical layer and baseline interference models.

* :mod:`repro.sinr.params` — physical constants (P, N, alpha, beta, rho) and
  the derived ranges ``R_max``, ``R_T``, ``R_I`` and MAC distance ``d``.
* :mod:`repro.sinr.channel` — per-slot reception resolution under three
  interference semantics: the paper's SINR model, the graph-based model of
  the original MW analysis, and a collision-free oracle.
* :mod:`repro.sinr.engine` — the shared vectorised channel-resolution
  engine: one Gram-expansion squared-distance matrix per slot.
* :mod:`repro.sinr.sparse` — the grid-bucketed sparse resolver for large
  deployments: exact near-field gain terms plus a certified conservative
  far-field bound (Lemma 3), O(n * deg) instead of O(n^2).
* :mod:`repro.sinr.interference` — interference measurement utilities used
  to validate Lemma 3 empirically.
"""

from __future__ import annotations

from .channel import (
    Channel,
    CollisionFreeChannel,
    Deliveries,
    Delivery,
    GraphChannel,
    ProtocolChannel,
    SINRChannel,
    Transmission,
)
from .engine import ResolutionEngine, apply_power_law
from .interference import InterferenceMeter, received_power, total_interference
from .params import PhysicalParams
from .sparse import SparseResolutionEngine

__all__ = [
    "Channel",
    "CollisionFreeChannel",
    "Deliveries",
    "Delivery",
    "GraphChannel",
    "InterferenceMeter",
    "PhysicalParams",
    "ProtocolChannel",
    "ResolutionEngine",
    "SINRChannel",
    "SparseResolutionEngine",
    "Transmission",
    "apply_power_law",
    "received_power",
    "total_interference",
]
