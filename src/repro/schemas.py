"""Schema identifiers for every on-disk artifact the library writes.

One constants module is the single allowed definition site for the
``repro.<artifact>/<major>`` schema strings stamped into artifact
headers; the ``TEL001`` lint rule (see docs/STATIC_ANALYSIS.md) rejects
schema-shaped string literals anywhere else under ``src/``.  Keeping
them together makes version bumps reviewable in one hunk and stops two
writers from ever disagreeing about the current major version.

Bump the major number of a schema only on a breaking record-shape (or
store-layout) change; readers treat an unknown major as unreadable and
an unknown *record kind* within a known major as ignorable.
"""

from __future__ import annotations

import re

__all__ = [
    "FAULT_PLAN_SCHEMA",
    "ORCHESTRATION_SCHEMA",
    "SCHEMA_PATTERN",
    "SERVICE_SCHEMA",
    "TELEMETRY_SCHEMA",
]

#: Telemetry JSONL artifacts (``--telemetry-out``, ``repro report``).
TELEMETRY_SCHEMA = "repro.telemetry/1"

#: Orchestration run-store shard files (``repro sweep --store``).
ORCHESTRATION_SCHEMA = "repro.orchestration/1"

#: Declarative fault-injection plans (``--faults plan.json``).
FAULT_PLAN_SCHEMA = "repro.faults/1"

#: HTTP job-service request/response envelopes (``repro serve``).
SERVICE_SCHEMA = "repro.service/1"

#: The shape every schema identifier must match.
SCHEMA_PATTERN = re.compile(r"^repro\.[a-z_]+/[0-9]+$")
