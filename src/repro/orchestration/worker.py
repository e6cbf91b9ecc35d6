"""The shard worker: what runs inside each pool process.

:func:`execute_shard` is a top-level function taking one picklable
payload dict, so it ships cleanly through :mod:`concurrent.futures`.  It
resolves the experiment module by dotted path (not through the registry,
so tests can point shards at fixture modules), runs the shard's units in
order, and returns a plain-dict shard record the parent persists.

Per-shard timeouts are enforced *inside* the worker with ``SIGALRM``
(:func:`signal.setitimer`): when the budget expires the unit raises
:class:`ShardTimeout`, the worker process survives, and the parent sees
an ordinary exception it can retry or record.  This keeps the pool
healthy — no stuck process to kill, no broken executor — which is why
the timeout lives here rather than in ``future.result(timeout=...)``.

Workers ignore ``SIGINT`` (:func:`init_worker`): Ctrl-C belongs to the
orchestrating process, which drains in-flight shards and persists them
before exiting.
"""

from __future__ import annotations

import signal
import time

from ..errors import ReproError
from ..experiments._units import expand_unit

__all__ = ["ShardTimeout", "execute_shard", "init_worker"]


class ShardTimeout(ReproError):
    """A shard exceeded its per-shard wall-clock budget."""


def init_worker() -> None:
    """Pool initializer: leave SIGINT handling to the orchestrator."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _alarm(signum, frame):  # pragma: no cover - dispatched by the kernel
    raise ShardTimeout("shard exceeded its time budget")


def execute_shard(payload: dict) -> dict:
    """Run one shard and return its result record.

    Payload keys: ``module`` (dotted experiment module), ``experiment``,
    ``config_hash``, ``shard`` (index), ``start`` (global unit offset),
    ``units``, optional ``timeout_s`` and ``telemetry_path``.

    The record mirrors the payload's identity fields and adds ``rows``
    (all units' rows, in unit order), ``unit_rows`` (per-unit row counts,
    so the rows can be re-attributed to units later) and ``wall_s``.
    """
    timeout_s = payload.get("timeout_s")
    if timeout_s:
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        began = time.perf_counter()  # repro: noqa[DET001] wall-clock provenance only; rows are unaffected
        rows: list[dict] = []
        unit_rows: list[int] = []
        for work in payload["units"]:
            produced = expand_unit(payload["module"], work)
            unit_rows.append(len(produced))
            rows.extend(produced)
        wall_s = time.perf_counter() - began  # repro: noqa[DET001] wall-clock provenance only; rows are unaffected
    finally:
        if timeout_s:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    record = {
        "shard": payload["shard"],
        "start": payload["start"],
        "units": len(payload["units"]),
        "unit_rows": unit_rows,
        "rows": rows,
        "wall_s": wall_s,
    }
    telemetry_path = payload.get("telemetry_path")
    if telemetry_path is not None:
        _write_shard_artifact(telemetry_path, payload, record)
    return record


def _write_shard_artifact(path, payload: dict, record: dict) -> None:
    """One ``repro.telemetry/1`` artifact per shard, merged after the sweep."""
    from ..telemetry import TelemetryWriter

    meta = {
        "experiment": payload["experiment"],
        "config_hash": payload["config_hash"],
        "shard": payload["shard"],
        "start": payload["start"],
    }
    with TelemetryWriter(path, "sweep-shard", meta=meta) as writer:
        for row in record["rows"]:
            writer.write({"k": "row", "row": row})
        writer.summary(
            {
                "shard": payload["shard"],
                "units": record["units"],
                "rows": len(record["rows"]),
                "wall_s": record["wall_s"],
            }
        )
