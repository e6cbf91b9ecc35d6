"""Streaming JSONL export and import of run telemetry.

One run becomes one ``.jsonl`` file: a schema-versioned header line
followed by one JSON object per record, written as they are produced so
memory stays flat even for long runs.  Record kinds (the ``"k"`` field):

=========  ==================================================================
``header``   first line; ``schema`` (:data:`SCHEMA`), ``command``, ``meta``
``trace``    one :class:`~repro.simulation.trace.TraceEvent`
             (``slot``, ``node``, ``kind``, ``detail``)
``slot``     one profiled slot (``slot``, ``node_s``, ``resolve_s``,
             ``observer_s``, ``tx``, ``rx``)
``row``      one table row of a run that produces tables (experiments)
``metrics``  the final :class:`~repro.telemetry.registry.MetricsRegistry`
             snapshot under ``metrics``
``summary``  the run's headline numbers under ``summary`` (last line)
=========  ==================================================================

The file round-trips: :func:`read_run` rebuilds a
:class:`~repro.simulation.trace.TraceRecorder` from the ``trace``
records, so every offline analysis that works on an in-memory trace
(``repro.analysis.protocol_stats``) works on the exported artifact too.
Unknown record kinds are preserved but ignored — forward-compatible
within a major schema version.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, IO

from ..errors import ConfigurationError
from ..schemas import TELEMETRY_SCHEMA
from .profiler import SlotProfiler
from .registry import MetricsRegistry

__all__ = ["RunArtifact", "SCHEMA", "TelemetryWriter", "read_run"]

#: Schema identifier written in every header (defined in
#: :mod:`repro.schemas`; bump the major number there on breaking
#: record-shape changes).
SCHEMA = TELEMETRY_SCHEMA


def _jsonable(value: Any) -> Any:
    """Last-resort encoder: numpy scalars/arrays, then ``str``."""
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "ndim", None) == 0:
        return item()
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    return str(value)


class TelemetryWriter:
    """Streaming writer: one JSON object per line, header first.

    Usable as a context manager; records are flushed line-by-line so a
    crashed run still leaves a readable prefix.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        command: str,
        meta: dict | None = None,
    ) -> None:
        self._path = pathlib.Path(path)
        self._file: IO[str] | None = self._path.open("w", encoding="utf-8")
        self.write({"k": "header", "schema": SCHEMA, "command": command,
                    "meta": dict(meta or {})})

    @property
    def path(self) -> pathlib.Path:
        """Where the artifact is being written."""
        return self._path

    def write(self, record: dict) -> None:
        """Append one record as a JSON line (flushed, so tails see it)."""
        if self._file is None:
            raise ConfigurationError(f"telemetry writer for {self._path} is closed")
        self._file.write(json.dumps(record, default=_jsonable) + "\n")
        # Flush per record: a crashed run leaves a readable prefix, and a
        # live tail (repro.telemetry.tail) sees lines as they happen.
        self._file.flush()

    def trace_event(self, event) -> None:
        """Append one ``trace`` record from a ``TraceEvent``."""
        self.write(
            {
                "k": "trace",
                "slot": event.slot,
                "node": event.node,
                "kind": event.kind,
                "detail": event.detail,
            }
        )

    def slot_profiles(self, profiler: SlotProfiler) -> None:
        """Append one ``slot`` record per retained profiler record."""
        for profile in profiler.records:
            self.write({"k": "slot", **profile.as_record()})

    def metrics(self, registry: MetricsRegistry) -> None:
        """Append the registry snapshot as a ``metrics`` record."""
        self.write({"k": "metrics", "metrics": registry.snapshot()})

    def summary(self, summary: dict) -> None:
        """Append the run summary (conventionally the last record)."""
        self.write({"k": "summary", "summary": dict(summary)})

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class RunArtifact:
    """A parsed telemetry file — the offline twin of a live run.

    Attributes
    ----------
    command / meta / schema:
        Header fields (which subcommand produced the file, and with what
        configuration).
    trace:
        The rebuilt event log (``enabled=False`` mirrors an exported
        trace being frozen history; the events are all there).
    slots:
        Per-slot profiler records, as plain dicts in file order.
    rows:
        ``row`` records (experiment tables), in file order.
    metrics:
        The final metrics snapshot (``{}`` if none was written).
    summary:
        The run summary (``None`` if the run died before writing one).
    """

    path: pathlib.Path
    schema: str
    command: str
    meta: dict
    trace: Any
    slots: list[dict] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    summary: dict | None = None

    @property
    def delivery_rate(self) -> float | None:
        """Deliveries per transmission from the summary, or None."""
        if not self.summary:
            return None
        transmissions = self.summary.get("transmissions")
        deliveries = self.summary.get("deliveries")
        if not transmissions:
            return None
        return deliveries / transmissions

    def profile_summary(self) -> dict:
        """Aggregate the ``slot`` records exactly like a live profiler."""
        profiler = SlotProfiler()
        for record in self.slots:
            profiler.record_slot(
                slot=record["slot"],
                node_s=record["node_s"],
                resolve_s=record["resolve_s"],
                observer_s=record["observer_s"],
                transmissions=record["tx"],
                deliveries=record["rx"],
            )
        return profiler.summary()

    def protocol_stats(self):
        """Reset/wait statistics recomputed from the exported trace.

        Needs a coloring-run summary (``n``, ``leaders``,
        ``decision_slots``) and a non-empty trace; returns the same
        :class:`~repro.analysis.protocol_stats.ProtocolStats` the live
        run would produce, or ``None`` when the artifact has no trace.
        """
        if len(self.trace) == 0 or not self.summary:
            return None
        required = ("n", "leaders", "decision_slots")
        if any(key not in self.summary for key in required):
            return None
        from ..analysis.protocol_stats import trace_statistics_from

        return trace_statistics_from(
            self.trace,
            n=int(self.summary["n"]),
            leaders=self.summary["leaders"],
            decision_slots=self.summary["decision_slots"],
        )


def _parse_line(path: pathlib.Path, number: int, line: str) -> dict:
    """One JSONL record, or a clear error naming the offending line.

    A killed run (crashed worker, SIGKILL mid-write) leaves a truncated
    final line; corruption leaves garbage anywhere.  Both surface as
    :class:`~repro.errors.ConfigurationError` with the line number so
    the artifact can be inspected, rather than a bare ``json`` traceback.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as failure:
        raise ConfigurationError(
            f"{path}: line {number} is not valid JSON ({failure.msg}) — "
            "the artifact is corrupt or was truncated by a killed run"
        ) from failure
    if not isinstance(record, dict):
        raise ConfigurationError(
            f"{path}: line {number} is not a JSON object — "
            "not a telemetry record"
        )
    return record


#: Fields every ``slot`` record must carry (mirrors ``SlotProfile.as_record``).
_SLOT_FIELDS = frozenset({"slot", "node_s", "resolve_s", "observer_s", "tx", "rx"})


def _payload(path: pathlib.Path, number: int, record: dict, key: str) -> dict:
    """The record's object payload, or a file+line error when mutated."""
    payload = record.get(key, {})
    if not isinstance(payload, dict):
        raise ConfigurationError(
            f"{path}: line {number} is a {key} record whose {key!r} field "
            "is not a JSON object — the artifact is corrupt"
        )
    return payload


def read_run(path: str | pathlib.Path) -> RunArtifact:
    """Parse a telemetry JSONL file into a :class:`RunArtifact`.

    Raises :class:`~repro.errors.ConfigurationError` on every way the
    file can be unusable — missing/unreadable, invalid UTF-8, a missing
    or incompatible header, corrupt or truncated record lines (with the
    line number) — and tolerates (skips) unknown record kinds.
    """
    path = pathlib.Path(path)
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as failure:
        raise ConfigurationError(
            f"cannot read telemetry file {path}: {failure}"
        ) from failure
    try:
        return _read_records(path, handle)
    except OSError as failure:
        raise ConfigurationError(
            f"cannot read telemetry file {path}: {failure}"
        ) from failure
    except UnicodeDecodeError as failure:
        raise ConfigurationError(
            f"{path}: invalid UTF-8 near byte {failure.start} — "
            "the artifact is corrupt"
        ) from failure
    finally:
        handle.close()


def _read_records(path: pathlib.Path, handle: IO[str]) -> RunArtifact:
    """The parse loop behind :func:`read_run` (which owns error wrapping)."""
    from ..simulation.trace import TraceRecorder

    first = handle.readline()
    if not first.strip():
        raise ConfigurationError(f"{path} is empty — not a telemetry file")
    header = _parse_line(path, 1, first)
    if header.get("k") != "header":
        raise ConfigurationError(
            f"{path} does not start with a telemetry header record"
        )
    schema = header.get("schema", "")
    if not isinstance(schema, str) or schema.split("/")[0] != SCHEMA.split("/")[0]:
        raise ConfigurationError(
            f"{path} has schema {schema!r}, expected {SCHEMA!r}"
        )

    trace = TraceRecorder(enabled=True)
    artifact = RunArtifact(
        path=path,
        schema=schema,
        command=header.get("command", ""),
        meta=header.get("meta", {}),
        trace=trace,
    )
    for number, line in enumerate(handle, start=2):
        line = line.strip()
        if not line:
            continue
        record = _parse_line(path, number, line)
        kind = record.get("k")
        if kind == "trace":
            try:
                trace.record(
                    record["slot"], record["node"], record["kind"],
                    record.get("detail"),
                )
            except KeyError as missing:
                raise ConfigurationError(
                    f"{path}: line {number} is a trace record missing "
                    f"field {missing} — the artifact is corrupt"
                ) from missing
        elif kind == "slot":
            # Validate here so a mutated slot record fails with a
            # file+line error at read time, not a KeyError later in
            # profile_summary().
            missing = _SLOT_FIELDS.difference(record)
            if missing:
                raise ConfigurationError(
                    f"{path}: line {number} is a slot record missing "
                    f"field(s) {sorted(missing)} — the artifact is corrupt"
                )
            artifact.slots.append(record)
        elif kind == "row":
            artifact.rows.append(_payload(path, number, record, "row"))
        elif kind == "metrics":
            artifact.metrics = _payload(path, number, record, "metrics")
        elif kind == "summary":
            artifact.summary = _payload(path, number, record, "summary")
        # unknown kinds: skipped (forward compatibility)
    # The exported trace is frozen history: keep the events readable but
    # make accidental appends explicit no-ops.
    trace.enabled = False
    return artifact
