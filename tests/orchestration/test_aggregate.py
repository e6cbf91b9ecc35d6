"""Aggregator: canonical merge and telemetry artifact merging."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import run_units
from repro.orchestration import (
    RunStore,
    merged_rows,
    run_sharded,
    write_merged_artifact,
)
from repro.telemetry import read_run

from . import fake_exp

FAKE = "tests.orchestration.fake_exp"
KW = {"seeds": [0, 1], "xs": [1, 2]}


def _sweep(store=None):
    return run_sharded("fake", module=FAKE, jobs=2, store=store, unit_kwargs=KW)


class TestMergedArtifact:
    def test_without_store_rows_from_records(self, tmp_path):
        result = _sweep()
        out = tmp_path / "merged.jsonl"
        artifact = write_merged_artifact(out, result, meta={"who": "test"})
        assert artifact.schema == "repro.telemetry/1"
        assert artifact.command == "sweep"
        assert artifact.meta == {"who": "test"}
        assert artifact.rows == merged_rows(result)
        assert artifact.summary["shards"] == result.num_shards
        assert artifact.summary["rows"] == len(artifact.rows)

    def test_with_store_merges_per_shard_artifacts(self, tmp_path):
        store = RunStore(tmp_path / "store")
        result = _sweep(store=store)
        # the workers left one telemetry artifact per shard
        shard_artifacts = [
            store.telemetry_path("fake", result.config_hash, index)
            for index in range(result.num_shards)
        ]
        assert all(path.exists() for path in shard_artifacts)
        for path in shard_artifacts:
            shard_run = read_run(path)
            assert shard_run.command == "sweep-shard"
            assert shard_run.summary["rows"] == len(shard_run.rows)

        out = tmp_path / "merged.jsonl"
        artifact = write_merged_artifact(out, result, store=store)
        assert artifact.rows == merged_rows(result)
        assert artifact.summary["shard_artifacts"] == result.num_shards

    def test_missing_shard_artifact_falls_back_to_records(self, tmp_path):
        store = RunStore(tmp_path / "store")
        result = _sweep(store=store)
        # simulate a store written by an older run without telemetry
        for index in range(result.num_shards):
            store.telemetry_path("fake", result.config_hash, index).unlink()
        artifact = write_merged_artifact(tmp_path / "m.jsonl", result, store=store)
        assert artifact.rows == merged_rows(result)
        assert "shard_artifacts" not in artifact.summary

    def test_merged_artifact_round_trips_and_orders_rows(self, tmp_path):
        result = _sweep()
        out = tmp_path / "merged.jsonl"
        write_merged_artifact(out, result)
        again = read_run(out)
        serial = run_units(
            fake_exp.__name__, fake_exp.units(seeds=[0, 1], xs=[1, 2])
        )
        assert json.dumps(again.rows) == json.dumps(serial)


class TestMergedRows:
    def test_incomplete_merge_refused(self):
        result = _sweep()
        del result.records[1]
        with pytest.raises(ConfigurationError, match=r"shards \[1\]"):
            merged_rows(result)
