"""Cache keys cannot collide across fault-plan and algorithm variants.

The service's whole caching story rests on one property: specs that
describe *different rows* hash to different config hashes (distinct
store directories, distinct job ids), while pure execution knobs leave
the hash untouched.  These are regression tests for that property at
the :func:`~repro.orchestration.plan_sweep` layer the service keys on.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, MessageFaults
from repro.orchestration import RunStore, plan_sweep
from repro.service.schemas import job_spec_from_payload

FAKE = "tests.orchestration.fake_exp"


def plan_for(**kwargs):
    return plan_sweep("exp1", unit_kwargs={"seeds": range(2)}, **kwargs)


class TestJobIdPins:
    """Job ids are pinned: a drift re-runs every cached job."""

    @pytest.mark.parametrize(
        "payload, job_id",
        [
            ({"experiment": "exp1"}, "exp1-7107bbc9c6a9fb1b"),
            ({"experiment": "exp14"}, "exp14-59e289547afd3ac5"),
            (
                {
                    "experiment": "exp13",
                    "seeds": 3,
                    "faults": FaultPlan(
                        messages=MessageFaults(drop=0.2)
                    ).to_dict(),
                },
                "exp13-8cc3f6c22333c2be",
            ),
            (
                {
                    "experiment": "exp14",
                    "seeds": 1,
                    "params": {"algorithm": "greedy", "n": 12, "extent": 2.4},
                },
                "exp14-886c6907349a4260",
            ),
        ],
    )
    def test_job_id_is_pinned(self, payload, job_id):
        spec = job_spec_from_payload(payload)
        plan = plan_sweep(
            spec.experiment, unit_kwargs=spec.unit_kwargs(), faults=spec.faults
        )
        assert f"{plan.experiment}-{plan.config_hash}" == job_id


class TestFaultAxis:
    def test_fault_plan_changes_the_hash(self):
        plan = FaultPlan(messages=MessageFaults(drop=0.2))
        clean = plan_sweep("exp13")
        faulty = plan_sweep("exp13", faults=plan)
        assert clean.config_hash != faulty.config_hash

    def test_different_plans_hash_apart(self):
        light = FaultPlan(messages=MessageFaults(drop=0.1))
        heavy = FaultPlan(messages=MessageFaults(drop=0.5))
        assert (
            plan_sweep("exp13", faults=light).config_hash
            != plan_sweep("exp13", faults=heavy).config_hash
        )

    def test_dict_and_object_plans_are_one_entry(self):
        plan = FaultPlan(messages=MessageFaults(drop=0.2))
        assert (
            plan_sweep("exp13", faults=plan).config_hash
            == plan_sweep("exp13", faults=plan.to_dict()).config_hash
        )


class TestAlgorithmAxis:
    ARENA_KW = {"seeds": range(1), "n": 12, "extent": 2.4}

    def test_selectors_hash_apart(self):
        hashes = {
            selector: plan_sweep(
                "exp14",
                unit_kwargs={**self.ARENA_KW, "algorithm": selector},
            ).config_hash
            for selector in ("greedy", "luby", "greedy,luby")
        }
        assert len(set(hashes.values())) == 3

    def test_params_spelling_matches_the_cli_flag(self):
        # The service path (params.algorithm -> unit_kwargs) and the CLI
        # path (--algorithm -> plan_sweep(algorithm=...)) must be one
        # cache entry: the selector lands in the same units either way.
        via_params = plan_sweep(
            "exp14", unit_kwargs={**self.ARENA_KW, "algorithm": "greedy"}
        )
        via_flag = plan_sweep(
            "exp14", unit_kwargs=dict(self.ARENA_KW), algorithm="greedy"
        )
        assert via_params.config_hash == via_flag.config_hash
        assert via_params.units == via_flag.units

    def test_unknown_selector_fails_the_plan_not_the_worker(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            plan_sweep(
                "exp14",
                unit_kwargs={**self.ARENA_KW, "algorithm": "no-such"},
            )


class TestCrossVariantSeparation:
    def test_clean_vs_faulted_store_apart(self, tmp_path):
        # the headline regression: the two ends of the spec space land
        # in different store directories and different job ids
        clean = plan_sweep("exp13")
        faulted = plan_sweep(
            "exp13", faults=FaultPlan(messages=MessageFaults(drop=0.2))
        )
        store = RunStore(tmp_path)
        dirs = {
            store.run_dir(p.experiment, p.config_hash) for p in (clean, faulted)
        }
        assert len(dirs) == 2
        job_ids = {f"{p.experiment}-{p.config_hash}" for p in (clean, faulted)}
        assert len(job_ids) == 2

    def test_seed_count_is_part_of_the_key(self):
        two = plan_sweep("exp1", unit_kwargs={"seeds": range(2)})
        three = plan_sweep("exp1", unit_kwargs={"seeds": range(3)})
        assert two.config_hash != three.config_hash

    def test_execution_knobs_never_reach_the_hash(self):
        # shard size / timeout / retries are scheduling, not work: the
        # planner does not even see them, so the hash cannot move
        baseline = plan_for()
        again = plan_for()
        assert baseline.config_hash == again.config_hash
        assert baseline.units == again.units

    def test_unknown_experiment_fails_fast(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            plan_sweep("exp99")

    def test_module_override_matches_registry_free_planning(self):
        plan = plan_sweep(
            "fake", module=FAKE, unit_kwargs={"seeds": [0], "xs": [1, 2]}
        )
        assert plan.num_units == 2
        assert len(plan.config_hash) == 16
