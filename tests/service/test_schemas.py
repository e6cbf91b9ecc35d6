"""Job submission validation: strict accept/reject at the API boundary."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.faults import FaultPlan, MessageFaults
from repro.service import JobSpec, job_spec_from_payload


def reject(payload, match: str) -> None:
    with pytest.raises(ServiceError, match=match) as failure:
        job_spec_from_payload(payload)
    assert failure.value.status == 400


class TestAccept:
    def test_minimal_submission_fills_defaults(self):
        spec = job_spec_from_payload({"experiment": "exp1"})
        assert spec == JobSpec(experiment="exp1", seeds=2)
        assert spec.shard_size == 1 and spec.retries == 1
        assert spec.timeout_s is None

    def test_default_and_explicit_seed_count_are_one_cache_entry(self):
        # the default is normalised to an explicit count, so both specs
        # produce byte-identical unit kwargs (hence one config hash)
        implicit = job_spec_from_payload({"experiment": "exp1"})
        explicit = job_spec_from_payload({"experiment": "exp1", "seeds": 2})
        assert implicit == explicit
        assert list(implicit.unit_kwargs()["seeds"]) == [0, 1]

    def test_seedless_experiment_accepts_omitted_seeds(self):
        # exp10 sweeps an (alpha, beta) grid with no seed axis
        spec = job_spec_from_payload({"experiment": "exp10"})
        assert spec.seeds is None
        assert "seeds" not in spec.unit_kwargs()

    def test_full_submission_round_trips(self):
        faults = FaultPlan(messages=MessageFaults(drop=0.2)).to_dict()
        payload = {
            "experiment": "exp13",
            "seeds": 3,
            "params": {"patterns": ["synchronous"]},
            "faults": faults,
            "shard_size": 2,
            "timeout_s": 30,
            "retries": 0,
        }
        spec = job_spec_from_payload(payload)
        assert spec.seeds == 3
        assert spec.params == {"patterns": ["synchronous"]}
        assert spec.faults == faults
        assert spec.timeout_s == 30.0 and spec.retries == 0
        echoed = spec.as_dict()
        assert echoed["experiment"] == "exp13"
        assert echoed["faults"] == faults

    def test_algorithm_selector_rides_params_for_the_arena(self):
        # Registry-backed experiments need no schema extension: exp14's
        # units() takes the selector, so it validates like any override.
        spec = job_spec_from_payload(
            {"experiment": "exp14", "params": {"algorithm": "greedy,luby"}}
        )
        assert spec.unit_kwargs()["algorithm"] == "greedy,luby"

    def test_algorithm_param_rejected_off_the_arena(self):
        reject(
            {"experiment": "exp1", "params": {"algorithm": "mw"}},
            "does not accept param 'algorithm'",
        )


class TestReject:
    def test_non_object_bodies(self):
        for payload in (None, [], "exp1", 7):
            reject(payload, "JSON object")

    def test_unknown_fields_name_the_offender(self):
        reject({"experiment": "exp1", "resolvr": "sparse"}, "resolvr")

    def test_resolver_is_an_unknown_field(self):
        # sweeps run on the dense engine only; even an old explicit
        # "dense" payload is refused, naming the field
        for value in ("dense", "sparse"):
            reject(
                {"experiment": "exp1", "resolver": value},
                r"unknown field\(s\) \['resolver'\]",
            )
        assert "resolver" not in JobSpec.__dataclass_fields__

    def test_batch_is_an_unknown_field(self):
        # the batched engine is gone, and so is its execution knob
        reject({"experiment": "exp1", "batch": True}, r"unknown field\(s\) \['batch'\]")

    def test_unknown_experiment_lists_the_registry(self):
        reject({"experiment": "nope"}, "exp1")

    def test_bad_seed_counts(self):
        reject({"experiment": "exp1", "seeds": 0}, ">= 1")
        reject({"experiment": "exp1", "seeds": "two"}, "integer")
        reject({"experiment": "exp1", "seeds": True}, "integer")

    def test_seeds_rejected_for_seedless_experiments(self):
        reject({"experiment": "exp10", "seeds": 2}, "no seed axis")

    def test_params_must_be_known_to_units(self):
        reject(
            {"experiment": "exp1", "params": {"extent": [4.0]}},
            "does not accept param",
        )

    def test_reserved_params_must_use_top_level_fields(self):
        for key in ("seeds", "faults"):
            reject(
                {"experiment": "exp1", "params": {key: 1}},
                "top-level",
            )

    def test_resolver_param_is_unknown_too(self):
        reject(
            {"experiment": "exp1", "params": {"resolver": "sparse"}},
            "does not accept param 'resolver'",
        )

    def test_faults_rejected_where_unsupported(self):
        plan = FaultPlan(messages=MessageFaults(drop=0.2)).to_dict()
        reject({"experiment": "exp1", "faults": plan}, "fault plan")

    def test_malformed_fault_plans(self):
        reject(
            {"experiment": "exp13", "faults": {"messages": {"drop": 1.5}}},
            "invalid fault plan",
        )

    def test_execution_knob_bounds(self):
        reject({"experiment": "exp1", "shard_size": 0}, "shard_size")
        reject({"experiment": "exp1", "timeout_s": 0}, "timeout_s")
        reject({"experiment": "exp1", "retries": -1}, "retries")
