"""One test per rule code, driven by deliberately-broken fixture files.

Each test lints its fixture with ``select`` narrowed to the rule under
test, so a fixture may violate several rules without cross-talk (the
fixtures deliberately omit things like the future-annotations import
only where that *is* the violation under test).
"""

from __future__ import annotations

import pathlib

from repro.devtools import lint_paths

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def codes_in(fixture: str, code: str) -> list[str]:
    """The ``code`` findings (by code) that linting ``fixture`` produces."""
    report = lint_paths([FIXTURES / fixture], root=FIXTURES, select=[code])
    return [finding.code for finding in report.findings]


def lines_in(fixture: str, code: str) -> list[int]:
    report = lint_paths([FIXTURES / fixture], root=FIXTURES, select=[code])
    return [finding.line for finding in report.findings]


class TestRngRules:
    def test_rng001_flags_both_import_forms(self):
        assert codes_in("rng_stdlib.py", "RNG001") == ["RNG001", "RNG001"]

    def test_rng002_flags_global_call_and_from_import(self):
        assert codes_in("rng_global.py", "RNG002") == ["RNG002", "RNG002"]

    def test_rng002_does_not_flag_constructors(self):
        # default_rng/SeedSequence are RNG003's business, not RNG002's
        assert codes_in("rng_construct.py", "RNG002") == []

    def test_rng003_flags_construction_outside_sanctioned_site(self):
        assert codes_in("rng_construct.py", "RNG003") == ["RNG003", "RNG003"]

    def test_rng003_exempts_simulation_rng_py(self):
        assert codes_in("simulation/rng.py", "RNG003") == []


class TestDeterminismRules:
    def test_det001_flags_module_and_from_import_clocks(self):
        assert codes_in("det_clock.py", "DET001") == ["DET001", "DET001"]

    def test_det001_exempts_telemetry(self):
        assert codes_in("telemetry/clock_ok.py", "DET001") == []

    def test_det002_flags_set_iteration_in_seed_pure_packages(self):
        assert codes_in("coloring/det_set.py", "DET002") == ["DET002", "DET002"]

    def test_det002_ignores_other_packages(self):
        assert codes_in("det_set_elsewhere.py", "DET002") == []

    def test_det003_flags_popitem(self):
        assert codes_in("det_popitem.py", "DET003") == ["DET003"]

    def test_det004_flags_environ_and_getenv(self):
        assert codes_in("det_environ.py", "DET004") == ["DET004", "DET004"]

    def test_det001_det004_exempt_service_boundary(self):
        # service/ is a documented process-boundary exemption: wall-clock
        # job timestamps and environment-read configuration are allowed
        # without noqas (docs/STATIC_ANALYSIS.md)
        assert codes_in("service/clock_ok.py", "DET001") == []
        assert codes_in("service/clock_ok.py", "DET004") == []

    def test_service_exemption_does_not_cover_other_det_rules(self):
        # the boundary exemption is scoped: DET003 still fires in service/
        assert codes_in("service/det_popitem.py", "DET003") == ["DET003"]


class TestContractRules:
    def test_exp001_reports_each_missing_export(self):
        report = lint_paths(
            [FIXTURES / "experiments" / "exp99_missing.py"],
            root=FIXTURES,
            select=["EXP001"],
        )
        missing = {f.message.split("`")[1] for f in report.findings}
        assert missing == {"GRID", "COLUMNS", "units", "run", "check"}

    def test_exp002_flags_hand_rolled_run(self):
        assert codes_in("experiments/exp98_drift.py", "EXP002") == ["EXP002"]

    def test_exp003_flags_signature_drift(self):
        report = lint_paths(
            [FIXTURES / "experiments" / "exp98_drift.py"],
            root=FIXTURES,
            select=["EXP003"],
        )
        assert [f.code for f in report.findings] == ["EXP003"]
        assert "extra" in report.findings[0].message

    def test_contract_rules_ignore_non_experiment_files(self):
        for code in ("EXP001", "EXP002", "EXP003"):
            assert codes_in("clean_module.py", code) == []


class TestTelemetryRule:
    def test_tel001_flags_schema_literal_only(self):
        # the "almost a schema" string must not match
        assert lines_in("tel_schema.py", "TEL001") == [5]


class TestFaultBoundaryRule:
    def test_flt001_flags_wrapper_but_not_leaf_channel(self):
        # HalvingChannel._resolve delegates to inner.resolve (flagged);
        # PlainChannel._resolve computes deliveries itself (clean).
        assert codes_in("sinr/flt_wrapper.py", "FLT001") == ["FLT001"]

    def test_flt001_flags_a_reception_hook_that_delegates(self):
        # MutingChannel._reception asks inner._reception (flagged);
        # LeafChannel._reception only calls its own helpers (clean).
        assert codes_in("sinr/flt_reception.py", "FLT001") == ["FLT001"]

    def test_flt001_exempts_the_faults_package(self):
        assert codes_in("faults/flt_home.py", "FLT001") == []

    def test_flt001_ignores_packages_outside_the_protocol_core(self):
        assert codes_in("clean_module.py", "FLT001") == []


class TestErrorRules:
    def test_err001_flags_bare_except(self):
        assert codes_in("err_swallow.py", "ERR001") == ["ERR001"]

    def test_err002_flags_swallowed_broad_except_including_tuples(self):
        assert codes_in("err_swallow.py", "ERR002") == ["ERR002", "ERR002"]


class TestStyleRule:
    def test_fut001_flags_missing_future_import(self):
        assert codes_in("fut_missing.py", "FUT001") == ["FUT001"]

    def test_fut001_accepts_clean_module(self):
        assert codes_in("clean_module.py", "FUT001") == []


class TestAlgorithmRules:
    def test_alg001_flags_the_unregistered_entry_only(self):
        assert codes_in("algorithms/alg_broken.py", "ALG001") == ["ALG001"]

    def test_alg002_flags_missing_and_computed_names(self):
        assert codes_in("algorithms/alg_broken.py", "ALG002") == [
            "ALG002",
            "ALG002",
        ]

    def test_clean_entry_passes_both(self):
        assert codes_in("algorithms/alg_ok.py", "ALG001") == []
        assert codes_in("algorithms/alg_ok.py", "ALG002") == []

    def test_rules_ignore_files_outside_the_zoo(self):
        assert codes_in("clean_module.py", "ALG001") == []

    def test_rules_are_clean_on_the_real_zoo(self):
        import repro.algorithms

        zoo_dir = pathlib.Path(repro.algorithms.__file__).parent
        report = lint_paths(
            [zoo_dir],
            root=zoo_dir.parent.parent,
            select=["ALG001", "ALG002"],
        )
        assert [finding.code for finding in report.findings] == []
