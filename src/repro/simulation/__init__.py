"""The slotted radio simulation engine.

The paper assumes time divided into globally synchronised slots, with nodes
waking up asynchronously and spontaneously (Section II).  This package
provides:

* :mod:`repro.simulation.event_sim` — the one engine: the
  :class:`EventNode` API protocol implementations plug into, and the
  event-driven slot loop that only pays for active slots,
* :mod:`repro.simulation.scheduler` — wake-up schedules,
* :mod:`repro.simulation.trace` — event tracing and per-slot observers,
* :mod:`repro.simulation.rng` — deterministic seed fan-out.
"""

from __future__ import annotations

from .event_sim import EventApi, EventNode, EventSimulator, RunStats
from .rng import spawn_generators, spawn_seed_sequences
from .scheduler import WakeupSchedule
from .trace import SlotObserver, TraceRecorder

__all__ = [
    "EventApi",
    "EventNode",
    "EventSimulator",
    "RunStats",
    "SlotObserver",
    "TraceRecorder",
    "WakeupSchedule",
    "spawn_generators",
    "spawn_seed_sequences",
]
