"""Project-specific rule catalogue.

Importing this package registers every rule with the framework
registry; :func:`repro.devtools.framework.all_rules` does so lazily.
The catalogue with per-rule rationale lives in docs/STATIC_ANALYSIS.md.
"""

from __future__ import annotations

from . import (
    algorithms,
    contracts,
    determinism,
    errors,
    faults,
    rng,
    style,
    telemetry,
)

__all__ = [
    "algorithms",
    "contracts",
    "determinism",
    "errors",
    "faults",
    "rng",
    "style",
    "telemetry",
]
