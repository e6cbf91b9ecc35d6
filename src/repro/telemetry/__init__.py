"""Run telemetry: metrics, per-slot profiling, JSONL artifacts.

Three independent tools plus one bundle that wires them together:

* :class:`~repro.telemetry.registry.MetricsRegistry` — counters, gauges
  and histograms the instrumented subsystems (channels, the resolution
  engine, the simulator, the coloring runner, SRS) emit into.  Hooks
  cost one ``None`` check when no registry is attached.
* :class:`~repro.telemetry.profiler.SlotProfiler` — per-slot wall-time
  attribution (node callbacks vs channel resolve vs observers), fed by
  the simulator's ``profiler=`` argument.
* :mod:`~repro.telemetry.jsonl` — schema-versioned streaming JSONL
  export (:class:`TelemetryWriter`) and import (:func:`read_run`) of
  trace events, slot profiles and metric snapshots.

:class:`Telemetry` is the one-stop configuration the run harnesses and
the CLI accept: construct one, pass it to
:func:`~repro.coloring.runner.run_mw_coloring` (or ``--telemetry-out``
on the CLI), and the run leaves a diffable ``.jsonl`` artifact that
``repro report`` summarises offline.

    from repro.telemetry import Telemetry

    telemetry = Telemetry(out="run.jsonl")
    result = run_mw_coloring(deployment, params, telemetry=telemetry)
    # run.jsonl now holds the trace, per-slot profile and metrics

See ``docs/OBSERVABILITY.md`` for the architecture, the JSONL schema and
measured overhead.
"""

from __future__ import annotations

import pathlib
from typing import Any

from .jsonl import SCHEMA, RunArtifact, TelemetryWriter, read_run
from .profiler import SlotProfile, SlotProfiler
from .registry import Counter, Gauge, Histogram, MetricsRegistry
from .tail import follow_jsonl

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunArtifact",
    "SCHEMA",
    "SlotProfile",
    "SlotProfiler",
    "Telemetry",
    "TelemetryWriter",
    "follow_jsonl",
    "read_run",
]


class Telemetry:
    """One run's observability configuration.

    Parameters
    ----------
    out:
        Path for the JSONL artifact; ``None`` keeps everything in
        memory (inspect ``telemetry.metrics`` / ``telemetry.profiler``
        after the run).
    metrics:
        Collect metrics (resolve timings, interference evaluations,
        decision histograms).  Off = the registry is disabled and instrumented
        code never attaches.
    profile:
        Attach a :class:`SlotProfiler` to the simulator.
    trace:
        Force protocol-event tracing on so the artifact round-trips into
        :func:`~repro.analysis.protocol_stats.trace_statistics`.
    meta:
        Free-form dict recorded in the artifact header (seeds, CLI
        arguments, ...).
    """

    def __init__(
        self,
        out: str | pathlib.Path | None = None,
        metrics: bool = True,
        profile: bool = True,
        trace: bool = True,
        meta: dict | None = None,
    ) -> None:
        self.out = pathlib.Path(out) if out is not None else None
        self.metrics = MetricsRegistry(enabled=metrics)
        self.profiler = SlotProfiler() if profile else None
        self.trace = bool(trace)
        self.meta = dict(meta or {})

    def attach_channel(self, channel: Any) -> None:
        """Instrument ``channel`` (and its engine) if metrics are on."""
        if self.metrics.enabled:
            channel.attach_metrics(self.metrics)

    def export(
        self,
        command: str,
        trace: Any = None,
        summary: dict | None = None,
        rows: list[dict] | None = None,
    ) -> pathlib.Path | None:
        """Write the artifact to :attr:`out` (no-op when ``out`` is None).

        Streams, in order: trace events, per-slot profiles, ``row``
        records, the metrics snapshot, and the summary.  Returns the
        written path.
        """
        if self.out is None:
            return None
        with TelemetryWriter(self.out, command, meta=self.meta) as writer:
            if trace is not None:
                for event in trace.events:
                    writer.trace_event(event)
            if self.profiler is not None:
                writer.slot_profiles(self.profiler)
            for row in rows or ():
                writer.write({"k": "row", "row": row})
            if self.metrics.enabled:
                writer.metrics(self.metrics)
            if summary is not None:
                writer.summary(summary)
        return self.out

    def export_coloring(
        self, result: Any, command: str = "color"
    ) -> pathlib.Path | None:
        """Export one MW-coloring run (called by the runner when ``out`` set).

        The summary embeds ``n``, ``leaders`` and ``decision_slots`` so
        the artifact's :meth:`RunArtifact.protocol_stats` reproduces the
        live ``trace_statistics``.
        """
        stats = result.stats
        summary = dict(result.summary())
        summary.update(
            {
                "transmissions": stats.transmissions,
                "deliveries": stats.deliveries,
                "delivery_rate": stats.delivery_rate,
                "slots_run": stats.slots_run,
                "decided_count": stats.decided_count,
                "leaders": [int(v) for v in result.leaders],
                "decision_slots": [int(s) for s in result.decision_slots],
            }
        )
        return self.export(command, trace=result.trace, summary=summary)
