"""JSONL export/import: schema checks and exact round-trips."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.telemetry import (
    SCHEMA,
    MetricsRegistry,
    SlotProfiler,
    TelemetryWriter,
    read_run,
)


def test_header_is_first_line(tmp_path):
    path = tmp_path / "run.jsonl"
    with TelemetryWriter(path, "color", meta={"seed": 3}):
        pass
    first = json.loads(path.read_text().splitlines()[0])
    assert first == {
        "k": "header", "schema": SCHEMA, "command": "color",
        "meta": {"seed": 3},
    }


def test_write_after_close_raises(tmp_path):
    writer = TelemetryWriter(tmp_path / "run.jsonl", "color")
    writer.close()
    with pytest.raises(ConfigurationError, match="closed"):
        writer.write({"k": "row"})
    writer.close()  # idempotent


def test_read_run_round_trips_all_record_kinds(tmp_path):
    path = tmp_path / "run.jsonl"
    registry = MetricsRegistry()
    # counters of the removed geometry cache, as older artifacts carry
    registry.counter("engine.cache_hits").inc(3)
    registry.counter("engine.cache_misses").inc(1)
    profiler = SlotProfiler()
    profiler.record_slot(0, node_s=0.1, resolve_s=0.2, observer_s=0.0,
                         transmissions=1, deliveries=2)
    with TelemetryWriter(path, "srs", meta={"n": 5}) as writer:
        writer.write({"k": "trace", "slot": 1, "node": 0, "kind": "reset",
                      "detail": None})
        writer.slot_profiles(profiler)
        writer.write({"k": "row", "row": {"a": 1}})
        writer.metrics(registry)
        writer.summary({"transmissions": 4, "deliveries": 2})

    run = read_run(path)
    assert run.schema == SCHEMA
    assert run.command == "srs"
    assert run.meta == {"n": 5}
    assert len(run.trace) == 1 and run.trace.events[0].kind == "reset"
    assert run.slots[0]["resolve_s"] == 0.2
    assert run.rows == [{"a": 1}]
    assert run.metrics["engine.cache_hits"]["value"] == 3
    assert run.summary == {"transmissions": 4, "deliveries": 2}
    assert run.delivery_rate == pytest.approx(0.5)


def test_profile_summary_matches_live_profiler(tmp_path):
    path = tmp_path / "run.jsonl"
    profiler = SlotProfiler()
    for slot in range(5):
        profiler.record_slot(slot, node_s=0.01, resolve_s=0.02,
                             observer_s=0.001, transmissions=1, deliveries=1)
    with TelemetryWriter(path, "color") as writer:
        writer.slot_profiles(profiler)
    assert read_run(path).profile_summary() == profiler.summary()


def test_imported_trace_is_frozen(tmp_path):
    path = tmp_path / "run.jsonl"
    with TelemetryWriter(path, "color") as writer:
        writer.write({"k": "trace", "slot": 0, "node": 1, "kind": "enter_A",
                      "detail": None})
    trace = read_run(path).trace
    assert not trace.enabled
    trace.record(5, 2, "reset")  # explicit no-op on frozen history
    assert len(trace) == 1


def test_unknown_record_kinds_are_skipped(tmp_path):
    path = tmp_path / "run.jsonl"
    with TelemetryWriter(path, "color") as writer:
        writer.write({"k": "hologram", "data": 42})
        writer.summary({"n": 1})
    run = read_run(path)
    assert run.summary == {"n": 1}


class TestRejectedFiles:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            read_run(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "headless.jsonl"
        path.write_text('{"k": "summary", "summary": {}}\n')
        with pytest.raises(ConfigurationError, match="header"):
            read_run(path)

    def test_major_schema_mismatch(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(
            '{"k": "header", "schema": "other.format/9", "command": "x"}\n'
        )
        with pytest.raises(ConfigurationError, match="schema"):
            read_run(path)

    def test_same_family_newer_version_accepted(self, tmp_path):
        path = tmp_path / "minor.jsonl"
        path.write_text(
            '{"k": "header", "schema": "repro.telemetry/2", "command": "x"}\n'
        )
        assert read_run(path).schema == "repro.telemetry/2"


class TestCorruptArtifacts:
    """A killed parallel worker can leave partial files; fail clearly."""

    HEADER = '{"k": "header", "schema": "repro.telemetry/1", "command": "x"}\n'

    def test_truncated_final_line(self, tmp_path):
        path = tmp_path / "truncated.jsonl"
        path.write_text(self.HEADER + '{"k": "row", "row": {"a"')
        with pytest.raises(ConfigurationError, match="line 2.*truncated"):
            read_run(path)

    def test_garbage_mid_file(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text(
            self.HEADER
            + '{"k": "row", "row": {"a": 1}}\n'
            + "\x00\x00 not json at all\n"
            + '{"k": "summary", "summary": {}}\n'
        )
        with pytest.raises(ConfigurationError, match="line 3"):
            read_run(path)

    def test_corrupt_header_line(self, tmp_path):
        path = tmp_path / "badheader.jsonl"
        path.write_text('{"k": "header", "schema": "repro.telem')
        with pytest.raises(ConfigurationError, match="line 1"):
            read_run(path)

    def test_non_object_record(self, tmp_path):
        path = tmp_path / "array.jsonl"
        path.write_text(self.HEADER + "[1, 2, 3]\n")
        with pytest.raises(ConfigurationError, match="line 2.*JSON object"):
            read_run(path)

    def test_trace_record_missing_fields(self, tmp_path):
        path = tmp_path / "badtrace.jsonl"
        path.write_text(self.HEADER + '{"k": "trace", "slot": 3}\n')
        with pytest.raises(ConfigurationError, match="line 2.*trace"):
            read_run(path)

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "named.jsonl"
        path.write_text(self.HEADER + "{broken\n")
        with pytest.raises(ConfigurationError, match="named.jsonl"):
            read_run(path)
