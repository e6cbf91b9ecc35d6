"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.algorithms import algorithm_names, run_coloring_algorithm
from repro.cli import build_parser, main
from repro.telemetry import MetricsRegistry, Telemetry, TelemetryWriter, read_run


class TestPhysics:
    def test_prints_geometry(self, capsys):
        assert main(["physics"]) == 0
        out = capsys.readouterr().out
        assert "R_T" in out and "R_I" in out
        assert "Theorem 3" in out

    def test_custom_constants(self, capsys):
        assert main(["physics", "--alpha", "6", "--beta", "1"]) == 0
        out = capsys.readouterr().out
        assert "alpha=6" in out


class TestColor:
    def test_successful_run_exits_zero(self, capsys):
        code = main(["color", "--n", "40", "--extent", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "MW coloring run" in out
        assert "yes" in out  # proper / completed flags

    def test_graph_channel(self, capsys):
        code = main(
            ["color", "--n", "30", "--extent", "5", "--seed", "1",
             "--channel", "graph"]
        )
        assert code == 0

    def test_grid_family(self, capsys):
        code = main(["color", "--n", "36", "--extent", "5", "--family", "grid"])
        assert code == 0


class TestColorOutputPins:
    """``repro color`` stdout, byte for byte, as the previous releases
    printed it: a moved column or a renamed title fails here."""

    FIXTURES = pathlib.Path(__file__).parent / "fixtures"

    @pytest.mark.parametrize(
        "argv,fixture",
        [
            (["color", "--n", "100", "--extent", "6.0", "--seed", "1"],
             "color_mw_n100_seed1.txt"),
            (["color", "--algorithm", "greedy", "--n", "10000",
              "--extent", "60.0", "--seed", "1"],
             "color_greedy_n10000_seed1.txt"),
        ],
        ids=["mw", "greedy"],
    )
    def test_stdout_is_pinned(self, capsys, argv, fixture):
        assert main(argv) == 0
        expected = (self.FIXTURES / fixture).read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


class TestMac:
    def test_theorem3_row_free(self, capsys):
        code = main(["mac", "--n", "80", "--extent", "6", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "distance-1" in out
        assert "TDMA audit" in out


class TestSrs:
    def test_flooding(self, capsys):
        code = main(
            ["srs", "--n", "100", "--extent", "6", "--seed", "24",
             "--algorithm", "flooding"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "single-round simulation" in out

    def test_disconnected_reports_error(self, capsys):
        # 10 nodes in a huge square: certainly disconnected
        code = main(["srs", "--n", "10", "--extent", "50", "--seed", "0"])
        assert code == 2
        assert "disconnected" in capsys.readouterr().err


class TestEstimate:
    def test_reports_estimate(self, capsys):
        code = main(["estimate", "--n", "50", "--extent", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "true_delta" in out


class TestTelemetry:
    def test_color_writes_artifact_and_report_reads_it(self, capsys, tmp_path):
        out = tmp_path / "run.jsonl"
        code = main(
            ["color", "--n", "40", "--extent", "5", "--seed", "1",
             "--telemetry-out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "telemetry written to" in capsys.readouterr().out

        assert main(["report", str(out)]) == 0
        report = capsys.readouterr().out
        assert "run summary" in report
        assert "slot-time attribution" in report
        assert "protocol statistics" in report
        assert "resets_total" in report

    def test_report_reads_artifacts_with_geometry_cache_counters(
        self, capsys, tmp_path
    ):
        # artifacts written before the geometry cache was removed carry
        # its counters; report lists them as metrics and derives no rate
        path = tmp_path / "old.jsonl"
        registry = MetricsRegistry()
        registry.counter("engine.cache_hits").inc(3)
        registry.counter("engine.cache_misses").inc(1)
        with TelemetryWriter(path, "color", meta={"n": 5}) as writer:
            writer.metrics(registry)
            writer.summary({"transmissions": 4, "deliveries": 2})
        assert main(["report", str(path)]) == 0
        report = capsys.readouterr().out
        assert "run summary" in report
        assert "engine.cache_hits" in report
        assert "hit_rate" not in report

    def test_registry_color_exports_once(self, capsys, tmp_path, monkeypatch):
        exported = []
        export = Telemetry.export

        def counting(self, command, **kwargs):
            exported.append(command)
            return export(self, command, **kwargs)

        monkeypatch.setattr(Telemetry, "export", counting)
        out = tmp_path / "greedy.jsonl"
        code = main(
            ["color", "--algorithm", "greedy", "--n", "40", "--extent", "5",
             "--seed", "1", "--telemetry-out", str(out)]
        )
        assert code == 0
        assert exported == ["color"]
        assert "telemetry written to" in capsys.readouterr().out
        row = read_run(out).summary
        assert row["algorithm"] == "greedy"
        assert row["independence_violations"] == 0

    def test_srs_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "srs.jsonl"
        code = main(
            ["srs", "--n", "30", "--extent", "4", "--seed", "5",
             "--telemetry-out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert main(["report", str(out)]) == 0
        assert "srs.rounds" in capsys.readouterr().out

    def test_report_rejects_missing_file(self, capsys, tmp_path):
        code = main(["report", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert "cannot read telemetry artifact" in capsys.readouterr().err

    def test_report_rejects_non_telemetry_file(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"not": "a header"}\n')
        assert main(["report", str(bogus)]) == 2

    def test_report_rejects_truncated_artifact(self, capsys, tmp_path):
        # a killed worker leaves a partial final line
        partial = tmp_path / "truncated.jsonl"
        partial.write_text(
            '{"k": "header", "schema": "repro.telemetry/1", "command": "x"}\n'
            '{"k": "row", "row'
        )
        assert main(["report", str(partial)]) == 2
        err = capsys.readouterr().err
        assert "cannot read telemetry artifact" in err
        assert "line 2" in err

    def test_report_rejects_corrupt_mid_file(self, capsys, tmp_path):
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text(
            '{"k": "header", "schema": "repro.telemetry/1", "command": "x"}\n'
            '{"k": "row", "row": {"a": 1}}\n'
            "never json\n"
        )
        assert main(["report", str(corrupt)]) == 2
        assert "line 3" in capsys.readouterr().err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])


class TestFaultsFlag:
    def _plan(self, tmp_path, payload=None):
        import json

        from repro.faults import FaultPlan, MessageFaults, NodeOutage

        path = tmp_path / "plan.json"
        plan = FaultPlan(
            outages=[NodeOutage(node=0, start=0, stop=50)],
            messages=MessageFaults(drop=0.2),
        )
        path.write_text(
            json.dumps(payload if payload is not None else plan.to_dict()),
            encoding="utf-8",
        )
        return path

    def test_color_with_faults_reports_degradation(self, tmp_path, capsys):
        path = self._plan(tmp_path)
        code = main(
            ["color", "--n", "25", "--extent", "3", "--seed", "2",
             "--faults", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "degradation under" in out
        assert "fault_dropped" in out

    @pytest.mark.parametrize("algorithm", algorithm_names())
    def test_one_handler_for_every_algorithm(self, tmp_path, capsys, algorithm):
        """Every zoo entry prints the degradation table under a plan, and
        the exit code is the library outcome's ``clean`` verdict."""
        from repro import PhysicalParams, uniform_deployment
        from repro.faults import load_fault_plan

        path = self._plan(tmp_path)
        code = main(
            ["color", "--n", "25", "--extent", "3", "--seed", "2",
             "--algorithm", algorithm, "--faults", str(path)]
        )
        out = capsys.readouterr().out
        assert "degradation under" in out
        outcome = run_coloring_algorithm(
            algorithm,
            uniform_deployment(25, 3.0, seed=2),
            PhysicalParams(alpha=4.0, beta=2.0, rho=2.0).with_r_t(1.0),
            seed=2,
            faults=load_fault_plan(path),
        )
        assert code == (0 if outcome.clean else 1)

    def test_bad_plan_exits_two_with_message(self, tmp_path, capsys):
        path = self._plan(tmp_path, payload={"schema": "wrong/9"})
        code = main(
            ["color", "--n", "25", "--extent", "3", "--faults", str(path)]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot load fault plan" in err

    def test_srs_with_faults_prints_events(self, tmp_path, capsys):
        # Node 0 is the flooding source and its radio is down for the
        # whole first frame: its one transmission is suppressed, the
        # flood never starts, and the run reports failure-to-halt
        # (exit 1) instead of crashing — graceful degradation.
        path = self._plan(tmp_path)
        code = main(
            ["srs", "--n", "100", "--extent", "6", "--seed", "24",
             "--algorithm", "flooding", "--max-rounds", "30",
             "--faults", str(path)]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "fault events under" in out
        assert "suppressed_transmissions" in out

    def test_srs_with_gentle_faults_still_halts(self, tmp_path, capsys):
        import json

        from repro.faults import FaultPlan, MessageFaults

        path = tmp_path / "gentle.json"
        path.write_text(
            json.dumps(FaultPlan(messages=MessageFaults(drop=0.05)).to_dict()),
            encoding="utf-8",
        )
        code = main(
            ["srs", "--n", "100", "--extent", "6", "--seed", "24",
             "--algorithm", "flooding", "--faults", str(path)]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)  # drops may or may not break exactness
        assert "fault events under" in out


class TestResolverEcho:
    """The config echo must name the active interference backend."""

    def test_color_echoes_default_dense(self, capsys):
        code = main(["color", "--n", "30", "--extent", "4", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "resolver=dense" in out

    def test_color_runs_and_echoes_sparse(self, capsys):
        code = main(
            ["color", "--n", "30", "--extent", "4", "--seed", "1",
             "--resolver", "sparse"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "MW coloring run (channel=sinr, resolver=sparse)" in out

    def test_srs_echoes_resolver(self, capsys):
        code = main(
            ["srs", "--n", "100", "--extent", "6", "--seed", "24",
             "--algorithm", "flooding", "--resolver", "sparse"]
        )
        out = capsys.readouterr().out
        assert code in (0, 1)
        assert "Corollary 1 single-round simulation (resolver=sparse)" in out

    def test_sweep_has_no_resolver_flag(self, capsys):
        """Sweeps run at sizes where the sparse resolver only loses, so
        the flag is gone: argparse refuses it with exit code 2."""
        with pytest.raises(SystemExit) as exited:
            main(["sweep", "exp1", "--resolver", "sparse"])
        assert exited.value.code == 2
        assert "--resolver" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "algorithm", [name for name in algorithm_names() if name != "mw"]
    )
    def test_registry_color_refuses_sparse(self, capsys, algorithm):
        """The sparse resolver is MW-only; every other zoo entry asked for
        it gets a ConfigurationError naming the flag, not a silent dense
        run."""
        code = main(
            ["color", "--n", "30", "--extent", "4", "--seed", "1",
             "--algorithm", algorithm, "--resolver", "sparse"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--resolver sparse" in captured.err
        assert f"'{algorithm}'" in captured.err

    def test_registry_color_echoes_dense(self, capsys):
        code = main(
            ["color", "--n", "30", "--extent", "4", "--seed", "1",
             "--algorithm", "greedy", "--resolver", "dense"]
        )
        assert code == 0
        assert "greedy coloring run (channel=sinr, resolver=dense)" in (
            capsys.readouterr().out
        )

    def test_rejects_unknown_resolver(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["color", "--resolver", "banded"])
