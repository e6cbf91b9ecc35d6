"""Executor: parity, retries, timeouts, interrupt + resume."""

import json
import threading

import pytest

from repro.errors import ConfigurationError
from repro.orchestration import merged_rows, run_sharded

from . import fake_exp

FAKE = "tests.orchestration.fake_exp"


def _rows_json(rows):
    return json.dumps(rows, sort_keys=False, default=str)


class TestParity:
    def test_rows_identical_to_serial_run(self):
        serial = fake_exp.run(seeds=[0, 1, 2], xs=[1, 2, 3, 4])
        result = run_sharded(
            "fake", module=FAKE, jobs=2, shard_size=2,
            unit_kwargs={"seeds": [0, 1, 2], "xs": [1, 2, 3, 4]},
        )
        assert result.complete and not result.failures
        assert _rows_json(merged_rows(result)) == _rows_json(serial)

    def test_parity_independent_of_jobs_and_shard_size(self):
        serial = fake_exp.run(seeds=[0, 1], xs=[1, 2, 3])
        for jobs, shard_size in [(1, 1), (3, 1), (2, 4), (4, 2)]:
            result = run_sharded(
                "fake", module=FAKE, jobs=jobs, shard_size=shard_size,
                unit_kwargs={"seeds": [0, 1], "xs": [1, 2, 3]},
            )
            assert _rows_json(merged_rows(result)) == _rows_json(serial)

    def test_real_experiment_parity_exp10(self):
        from repro.experiments import exp10_physical_sweep as exp10

        result = run_sharded("exp10", jobs=2)
        assert result.complete
        rows = merged_rows(result)
        assert _rows_json(rows) == _rows_json(exp10.run())
        exp10.check(rows)

    def test_real_experiment_parity_exp7_with_seeds(self):
        from repro.experiments import exp07_palette_reduction as exp7

        result = run_sharded(
            "exp7", jobs=2, unit_kwargs={"seeds": range(2)}
        )
        assert result.complete
        assert _rows_json(merged_rows(result)) == _rows_json(
            exp7.run(seeds=range(2))
        )


class TestFailureModes:
    def test_flaky_shard_retries_then_succeeds(self, tmp_path):
        result = run_sharded(
            "fake", module=FAKE, jobs=2, retries=1,
            unit_kwargs={
                "seeds": [0], "xs": [1, 2],
                "fail_first": 1, "fail_dir": str(tmp_path / "fails"),
            },
        )
        assert result.complete
        assert result.failures == []
        # every unit failed once then passed on the retry
        assert fake_exp.count_marks(str(tmp_path / "fails")) == 4

    def test_persistent_failure_recorded_after_bounded_retries(self, tmp_path):
        result = run_sharded(
            "fake", module=FAKE, jobs=2, retries=2,
            unit_kwargs={
                "seeds": [0], "xs": [1],
                "fail_first": 99, "fail_dir": str(tmp_path / "fails"),
            },
        )
        assert not result.complete
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure["shard"] == 0
        assert failure["attempts"] == 3  # 1 initial + 2 retries
        assert "injected failure" in failure["error"]
        with pytest.raises(ConfigurationError, match="incomplete"):
            merged_rows(result)

    def test_shard_timeout_recorded(self):
        result = run_sharded(
            "fake", module=FAKE, jobs=1, retries=0, timeout_s=0.3,
            unit_kwargs={"seeds": [0], "xs": [1], "sleep_s": 10.0},
        )
        assert not result.complete
        assert len(result.failures) == 1
        assert "ShardTimeout" in result.failures[0]["error"]
        assert result.wall_s < 8.0  # nowhere near the 10s sleep

    def test_timed_out_shard_is_retried(self):
        result = run_sharded(
            "fake", module=FAKE, jobs=1, retries=1, timeout_s=0.3,
            unit_kwargs={"seeds": [0], "xs": [1], "sleep_s": 10.0},
        )
        assert len(result.failures) == 1
        assert result.failures[0]["attempts"] == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            run_sharded("exp99", jobs=1)

    def test_resume_without_store_rejected(self):
        with pytest.raises(ConfigurationError, match="resume"):
            run_sharded("fake", module=FAKE, resume=True)


class TestInterruptAndResume:
    def test_stop_drains_persists_and_resume_completes(self, tmp_path):
        store = tmp_path / "store"
        exec_dir = str(tmp_path / "execs")
        kwargs = {
            "seeds": [0, 1], "xs": [1, 2, 3],
            "sleep_s": 0.15, "exec_dir": exec_dir,
        }
        serial = fake_exp.run(seeds=[0, 1], xs=[1, 2, 3])

        stop = threading.Event()
        completions = []

        def progress(message):
            if "done:" in message:
                completions.append(message)
                stop.set()  # request a drain after the first completion

        first = run_sharded(
            "fake", module=FAKE, jobs=2, store=store, stop=stop,
            unit_kwargs=kwargs, progress=progress,
        )
        assert first.interrupted
        assert 0 < len(first.records) < first.num_shards
        executed_first = fake_exp.count_marks(exec_dir)
        # every persisted shard really ran, nothing ran twice
        assert executed_first == len(first.records)

        resumed = run_sharded(
            "fake", module=FAKE, jobs=2, store=store, resume=True,
            unit_kwargs=kwargs,
        )
        assert resumed.complete and not resumed.interrupted
        assert sorted(resumed.resumed) == sorted(first.records)
        # resume ran only the missing shards: total executions = unit count
        assert fake_exp.count_marks(exec_dir) == first.num_shards
        assert _rows_json(merged_rows(resumed)) == _rows_json(serial)

    def test_resume_reruns_corrupted_shard(self, tmp_path):
        from repro.orchestration import RunStore

        store = RunStore(tmp_path / "store")
        kwargs = {"seeds": [0], "xs": [1, 2]}
        first = run_sharded(
            "fake", module=FAKE, jobs=1, store=store, unit_kwargs=kwargs
        )
        assert first.complete
        # corrupt one persisted shard mid-file
        victim = store.shard_path("fake", first.config_hash, 1)
        victim.write_text(victim.read_text()[:25])
        resumed = run_sharded(
            "fake", module=FAKE, jobs=1, store=store, resume=True,
            unit_kwargs=kwargs,
        )
        assert resumed.complete
        assert resumed.resumed == [0]
        assert resumed.executed == [1]
        assert _rows_json(merged_rows(resumed)) == _rows_json(
            fake_exp.run(seeds=[0], xs=[1, 2])
        )

    def test_resume_with_different_shard_size_rejected(self, tmp_path):
        kwargs = {"seeds": [0], "xs": [1, 2, 3, 4]}
        run_sharded(
            "fake", module=FAKE, jobs=1, shard_size=1,
            store=tmp_path, unit_kwargs=kwargs,
        )
        with pytest.raises(ConfigurationError, match="shard"):
            run_sharded(
                "fake", module=FAKE, jobs=1, shard_size=2,
                store=tmp_path, resume=True, unit_kwargs=kwargs,
            )


class TestAllExperimentsShardable:
    def test_every_registry_entry_exposes_wellformed_units(self):
        from repro.experiments import REGISTRY
        from repro.orchestration import config_hash
        from repro.orchestration.store import STORE_SCHEMA

        for experiment, module in REGISTRY.items():
            units = module.units()
            assert units, f"{experiment} has no units"
            for work in units:
                assert set(work) == {"func", "kwargs"}
                assert callable(getattr(module, work["func"]))
            # the whole unit list must fingerprint cleanly
            assert config_hash(experiment, units, STORE_SCHEMA)

    def test_every_run_goes_through_run_units(self):
        """Serial/parallel parity is by construction: run() executes the
        exact unit list the shard planner sees.  Guard that construction."""
        import inspect

        from repro.experiments import REGISTRY

        for experiment, module in REGISTRY.items():
            source = inspect.getsource(module.run)
            assert "run_units" in source, (
                f"{experiment}.run() no longer delegates to run_units(); "
                "parallel sweeps can drift from the serial table"
            )


class TestConfigHashPins:
    """Dense sweep hashes are pinned: a drift orphans every stored sweep."""

    @pytest.mark.parametrize(
        "experiment, kwargs, expected",
        [
            ("exp1", {}, "7107bbc9c6a9fb1b"),
            ("exp14", {}, "59e289547afd3ac5"),
            ("exp14", {"algorithm": "mw", "seeds": range(3)}, "67a2ccaccc18d408"),
            # exp10's grid has no seed axis: ``seeds`` alone is dropped.
            ("exp10", {"seeds": range(3)}, "a8c5cd428a088707"),
        ],
    )
    def test_plan_hash_is_pinned(self, experiment, kwargs, expected):
        from repro.orchestration import plan_sweep

        algorithm = kwargs.get("algorithm")
        seeds = kwargs.get("seeds", range(2))
        plan = plan_sweep(
            experiment, unit_kwargs={"seeds": seeds}, algorithm=algorithm
        )
        assert plan.config_hash == expected

    def test_unknown_override_raises_naming_it(self):
        """A misspelt override used to be dropped, planning the default
        sweep (exp1 ``7107bbc9c6a9fb1b``) with no error."""
        from repro.orchestration import plan_sweep

        with pytest.raises(ConfigurationError, match="'extnets'"):
            plan_sweep("exp1", unit_kwargs={"seeds": range(2), "extnets": (5.0,)})
        with pytest.raises(ConfigurationError, match="'bogus', 'extnets'"):
            run_sharded(
                "exp1", jobs=1, unit_kwargs={"bogus": 1, "extnets": (5.0,)}
            )
        with pytest.raises(ConfigurationError, match="'faults'"):
            plan_sweep("exp10", faults={"messages": {"drop": 0.1}})
        with pytest.raises(ConfigurationError, match="'algorithm'"):
            plan_sweep("exp10", unit_kwargs={"seeds": range(3)}, algorithm="mw")

    def test_sweeps_take_no_resolver(self):
        """The sparse resolver only pays off far above sweep sizes, so
        the planner, the executor and the experiments refuse it."""
        from repro.experiments import exp01_colors_vs_delta as exp1
        from repro.experiments import exp14_arena as exp14
        from repro.orchestration import plan_sweep

        with pytest.raises(TypeError, match="resolver"):
            run_sharded("exp1", jobs=1, resolver="sparse")
        with pytest.raises(TypeError, match="resolver"):
            plan_sweep("exp1", resolver="sparse")
        for module in (exp1, exp14):
            with pytest.raises(TypeError, match="resolver"):
                module.units(seeds=(0,), resolver="sparse")
