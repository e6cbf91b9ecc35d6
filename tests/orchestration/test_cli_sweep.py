"""CLI surface: ``repro sweep``, its parity with ``repro experiment``, SIGINT.

The in-process tests drive ``main()`` directly on exp10 (sub-second).
The SIGINT test runs a real child process against the fixture experiment
and kills it mid-sweep — the only honest way to exercise the drain path.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestSweepCommand:
    def test_sweep_matches_serial_experiment_table(self, capsys):
        assert main(["experiment", "exp10"]) == 0
        serial = capsys.readouterr().out
        assert main(["sweep", "exp10", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        # identical output modulo the orchestration summary line
        parallel_lines = [
            line for line in parallel.splitlines() if "shards over" not in line
        ]
        assert parallel_lines == serial.splitlines()
        assert "check passed" in parallel

    def test_sweep_persists_and_resumes(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        assert main(["sweep", "exp10", "--jobs", "2", "--store", store]) == 0
        capsys.readouterr()
        assert main(
            ["sweep", "exp10", "--jobs", "2", "--store", store, "--resume"]
        ) == 0
        out = capsys.readouterr().out
        assert "8 resumed" in out
        assert "check passed" in out

    def test_sweep_writes_merged_telemetry(self, capsys, tmp_path):
        out_path = tmp_path / "sweep.jsonl"
        store = str(tmp_path / "store")
        code = main(
            ["sweep", "exp10", "--jobs", "2", "--store", store,
             "--telemetry-out", str(out_path)]
        )
        assert code == 0
        assert out_path.exists()
        capsys.readouterr()
        assert main(["report", str(out_path)]) == 0
        report = capsys.readouterr().out
        assert "exported rows (8)" in report

    def test_sweep_routes_through_orchestrator(self, capsys, tmp_path):
        code = main(
            ["sweep", "exp10", "--jobs", "2",
             "--store", str(tmp_path / "store")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "shards over 2 jobs" in out
        assert "check passed" in out

    def test_experiment_routes_through_orchestrator(self, capsys, monkeypatch):
        # the serial command plans its units with the orchestrator's
        # plan_sweep, the same binding ``repro sweep`` and the service use
        import repro.orchestration

        real = repro.orchestration.plan_sweep
        calls = []

        def spy(experiment, **kwargs):
            calls.append((experiment, kwargs))
            return real(experiment, **kwargs)

        monkeypatch.setattr(repro.orchestration, "plan_sweep", spy)
        assert main(["experiment", "exp10"]) == 0
        assert calls == [
            ("exp10", {"unit_kwargs": {"seeds": range(2)}, "algorithm": None})
        ]
        assert "check passed" in capsys.readouterr().out

    def test_experiment_has_no_parallel_flags(self, capsys):
        # ``repro sweep`` is the one parallel command
        with pytest.raises(SystemExit) as exit_info:
            main(["experiment", "exp10", "--jobs", "2"])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_experiment_and_sweep_refuse_an_override_alike(self, capsys):
        """Both commands bind their arguments to ``units()`` through
        ``plan_sweep``, so an axis the experiment lacks fails the same
        way in each, naming the experiment and the override."""
        messages = []
        for command in ("experiment", "sweep"):
            assert main([command, "exp1", "--algorithm", "mw"]) == 2
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert "'exp1'" in messages[0] and "'algorithm'" in messages[0]

    def test_sweep_rejects_resume_without_store(self, capsys):
        # the CLI boundary contract (ERR003): ConfigurationError becomes
        # a printed message and exit code 2, never a traceback
        assert main(["sweep", "exp10", "--jobs", "2", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "repro:" in err and "store" in err


class TestVersion:
    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out


class TestSigintDrain:
    # The executor keeps up to 2 shards per worker in flight, and a drain
    # finishes all of them, so an interrupt only leaves work undone while
    # shards are still queued.  Sixteen one-unit shards on two workers keep
    # the queue non-empty for about 1.5 s after the first shard is done;
    # that is the window the signal below must land in.
    UNIT_KWARGS = {"seeds": [0, 1], "xs": list(range(1, 9)), "sleep_s": 0.3}
    NUM_SHARDS = 16

    def test_sigint_drains_then_resume_completes(self, tmp_path):
        """Interrupt a real sweep process; resume must finish the table."""
        store = tmp_path / "store"
        driver = (
            "import sys, json\n"
            "from repro.orchestration import run_sharded\n"
            "result = run_sharded(\n"
            "    'fake', module='tests.orchestration.fake_exp', jobs=2,\n"
            f"    store={str(store)!r}, install_sigint=True,\n"
            f"    unit_kwargs={self.UNIT_KWARGS!r},\n"
            "    progress=lambda m: print(m, flush=True),\n"
            ")\n"
            "sys.exit(130 if result.interrupted else 0)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT),
             env.get("PYTHONPATH", "")]
        )
        process = subprocess.Popen(
            [sys.executable, "-c", driver],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env, cwd=str(REPO_ROOT),
        )
        # wait until at least one shard has been persisted, then interrupt
        for line in process.stdout:
            if "done:" in line:
                process.send_signal(signal.SIGINT)
                break
        process.stdout.read()
        assert process.wait(timeout=60) == 130

        # the interrupted run persisted a strict subset of the shards
        shard_files = list(store.rglob("shard-*.json"))
        assert 0 < len(shard_files) < self.NUM_SHARDS

        from repro.experiments import run_units
        from repro.orchestration import merged_rows, run_sharded

        from . import fake_exp

        resumed = run_sharded(
            "fake", module="tests.orchestration.fake_exp", jobs=2,
            store=store, resume=True,
            unit_kwargs=self.UNIT_KWARGS,
        )
        assert resumed.complete
        assert resumed.resumed  # it really did skip persisted work
        assert resumed.num_shards == self.NUM_SHARDS
        serial = run_units(fake_exp.__name__, fake_exp.units(
            seeds=self.UNIT_KWARGS["seeds"], xs=self.UNIT_KWARGS["xs"]
        ))
        assert merged_rows(resumed) == serial
