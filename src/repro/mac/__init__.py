"""Coloring-based MAC layer under SINR (Section V of the paper).

* :mod:`repro.mac.tdma` — a TDMA frame mapping colors to slots.
* :mod:`repro.mac.aloha` — slotted-ALOHA local broadcast baseline.
* :mod:`repro.mac.srs` — single-round simulation of message-passing
  algorithms over the TDMA schedule (Corollary 1).
"""

from __future__ import annotations

from ..invariants import MacVerificationReport, verify_tdma_broadcast
from .aloha import AlohaReport, run_slotted_aloha
from .pipeline import MacLayer, build_mac_layer
from .srs import SRSReport, simulate_general_algorithm, simulate_uniform_algorithm
from .tdma import TDMASchedule

__all__ = [
    "AlohaReport",
    "MacLayer",
    "MacVerificationReport",
    "SRSReport",
    "TDMASchedule",
    "build_mac_layer",
    "run_slotted_aloha",
    "simulate_general_algorithm",
    "simulate_uniform_algorithm",
    "verify_tdma_broadcast",
]
