"""Parallel experiment orchestration: sharded, resumable sweeps.

Every experiment in :data:`repro.experiments.REGISTRY` decomposes into
*units* — independent single-configuration calls in the canonical serial
order (see :mod:`repro.experiments._units`).  This package turns that
decomposition into a parallel job:

* :mod:`~repro.orchestration.plan` — deterministic contiguous shards
  over the unit list, plus the config hash that keys a sweep's results.
* :mod:`~repro.orchestration.store` — the on-disk run store: one JSON
  file per completed shard, written atomically, validated on load, so
  ``--resume`` skips exactly the work that already finished.
* :mod:`~repro.orchestration.worker` — the in-process shard runner with
  SIGALRM-based per-shard timeouts and per-shard telemetry artifacts.
* :mod:`~repro.orchestration.executor` — :func:`run_sharded`: the
  process-pool driver with bounded retry and graceful SIGINT drain.
* :mod:`~repro.orchestration.aggregate` — canonical-order merge back
  into one table (bit-identical to the serial ``run_units``), the
  experiment's own ``check()`` over the merged rows, and per-shard
  telemetry merged into one ``repro.telemetry/1`` artifact.

The CLI front end is ``python -m repro sweep``; ``python -m repro
experiment`` runs the same unit list serially.  See
docs/ORCHESTRATION.md for the shard model, store layout and measured
scaling.

    from repro.orchestration import run_sharded, merged_rows

    result = run_sharded("exp1", jobs=4, store=".repro_runs", resume=True)
    rows = merged_rows(result)        # == run_units(...) row for row
"""

from __future__ import annotations

from .aggregate import check_merged, merged_rows, write_merged_artifact
from .executor import SweepPlan, SweepResult, plan_sweep, run_sharded
from .plan import Shard, config_hash, plan_shards
from .store import RunStore, STORE_SCHEMA
from .worker import ShardTimeout, execute_shard

__all__ = [
    "RunStore",
    "STORE_SCHEMA",
    "Shard",
    "ShardTimeout",
    "SweepPlan",
    "SweepResult",
    "check_merged",
    "config_hash",
    "execute_shard",
    "merged_rows",
    "plan_shards",
    "plan_sweep",
    "run_sharded",
    "write_merged_artifact",
]
