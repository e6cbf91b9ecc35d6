"""The fault-plan refactor changed nothing observable.

EXP-11 (injected loss) and EXP-13 (wake-up patterns) used to build
their channels and schedules by hand; both are now thin FaultPlan
configurations.  The fixtures under ``fixtures/`` are their row tables
captured *before* the refactor — these tests lock bit-identity, the
experiments' own acceptance checks, and the end-to-end fault surface
(telemetry artifacts, orchestrated sweeps with the plan in the config
hash, ``--resume`` round-trips).
"""

from __future__ import annotations

import json
import pathlib

from repro import PhysicalParams, uniform_deployment
from repro.coloring.runner import run_mw_coloring
from repro.experiments import exp11_loss_robustness as exp11
from repro.experiments import exp13_wakeup_patterns as exp13
from repro.experiments import run_units
from repro.faults import FaultPlan, MessageFaults, NodeOutage
from repro.orchestration import merged_rows, run_sharded
from repro.orchestration.store import RunStore
from repro.telemetry import Telemetry, read_run

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _fixture(name: str) -> list[dict]:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def _canonical(rows: list[dict]) -> str:
    return json.dumps(rows, sort_keys=True, default=str)


class TestHistoricalRowParity:
    def test_exp11_rows_bit_identical_to_pre_refactor(self):
        rows = run_units(exp11.__name__, exp11.units(seeds=(0, 1)))
        assert _canonical(rows) == _canonical(_fixture("exp11_rows.json"))
        exp11.check(rows)

    def test_exp13_rows_bit_identical_to_pre_refactor(self):
        rows = run_units(exp13.__name__, exp13.units(seeds=(0, 1)))
        assert _canonical(rows) == _canonical(_fixture("exp13_rows.json"))
        exp13.check(rows)


class TestFaultEventsInTelemetry:
    def test_artifact_carries_fault_counters(self, tmp_path):
        out = tmp_path / "run.jsonl"
        telemetry = Telemetry(out=out, profile=False, trace=False)
        plan = FaultPlan(
            outages=[NodeOutage(node=0, start=0, stop=100)],
            messages=MessageFaults(drop=0.3),
        )
        deployment = uniform_deployment(20, 3.0, seed=4)
        params = PhysicalParams().with_r_t(1.0)
        result = run_mw_coloring(
            deployment, params, seed=4, telemetry=telemetry, faults=plan
        )
        artifact = read_run(out)
        metrics = artifact.metrics
        assert metrics["channel.dropped_deliveries"]["value"] == (
            result.fault_events["dropped"]
        )
        assert metrics["faults.suppressed_transmissions"]["value"] == (
            result.fault_events["suppressed_transmissions"]
        )


class TestOrchestratedFaults:
    UNIT_KW = {"seeds": [0], "drops": [0.0, 0.15]}

    def test_fault_plan_folds_into_config_hash(self):
        plain = run_sharded("exp11", jobs=1, unit_kwargs=dict(self.UNIT_KW))
        faulted = run_sharded(
            "exp11", jobs=1, unit_kwargs=dict(self.UNIT_KW),
            faults=FaultPlan(outages=[NodeOutage(node=1, start=0, stop=50)]),
        )
        assert plain.config_hash != faulted.config_hash
        assert plain.complete and faulted.complete

    def test_sweep_with_faults_resumes_from_store(self, tmp_path):
        store = RunStore(tmp_path / "store")
        plan = FaultPlan(messages=MessageFaults(drop=0.05), seed=3)
        first = run_sharded(
            "exp11", jobs=1, unit_kwargs=dict(self.UNIT_KW),
            store=store, faults=plan,
        )
        assert first.complete
        # Same plan (as its canonical dict): every shard loads from disk.
        resumed = run_sharded(
            "exp11", jobs=1, unit_kwargs=dict(self.UNIT_KW),
            store=store, resume=True, faults=plan.to_dict(),
        )
        assert resumed.config_hash == first.config_hash
        assert sorted(resumed.resumed) == sorted(resumed.records)
        assert not resumed.executed
        assert _canonical(merged_rows(resumed)) == _canonical(
            merged_rows(first)
        )
        # A different plan is different work: nothing resumes.
        other = run_sharded(
            "exp11", jobs=1, unit_kwargs=dict(self.UNIT_KW),
            store=store, resume=True,
            faults=FaultPlan(messages=MessageFaults(drop=0.1), seed=3),
        )
        assert other.config_hash != first.config_hash
        assert not other.resumed
