"""Whole-program analyzer tests: fixtures per rule code, CLI flags, gate.

Each deliberate-defect fixture under ``fixtures/xprogram/<case>/`` is a
miniature program tree; a test per rule code asserts the finding fires
there (so deleting a rule fails the suite), and the clean-tree test
mirrors ``test_tree_clean.py`` for the deep pass.
"""

from __future__ import annotations

import json
import pathlib
import subprocess

import pytest

from repro.devtools.cli import main
from repro.devtools.xprogram import all_deep_rules, deep_codes, deep_lint

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "xprogram"
REPO_ROOT = pathlib.Path(__file__).parents[2]


def _codes_at(report, path_suffix=None):
    return [
        f.code
        for f in report.findings
        if path_suffix is None or f.path.endswith(path_suffix)
    ]


# -- one failing fixture per rule code ---------------------------------------


def test_ccy001_unlocked_cross_thread_write():
    report = deep_lint(root=FIXTURES / "ccy")
    hits = [f for f in report.findings if f.code == "CCY001"]
    assert len(hits) == 1
    assert "_flag" in hits[0].message and "submit()" in hits[0].message


def test_ccy002_inconsistent_locking():
    report = deep_lint(root=FIXTURES / "ccy")
    hits = [f for f in report.findings if f.code == "CCY002"]
    # both bare ``_jobs`` sites are flagged against the guarded clear()
    assert {("_jobs" in f.message) for f in hits} == {True}
    assert len(hits) == 2
    assert any("peek()" in f.message for f in hits)
    assert any("_run()" in f.message for f in hits)


def test_ccy003_unlocked_container_mutation():
    report = deep_lint(root=FIXTURES / "ccy")
    hits = [f for f in report.findings if f.code == "CCY003"]
    assert len(hits) == 1
    assert "_log" in hits[0].message and "worker-thread" in hits[0].message


def test_rng004_module_global_with_interprocedural_path():
    report = deep_lint(root=FIXTURES / "rng_taint")
    hits = [f for f in report.findings if f.code == "RNG004"]
    assert len(hits) == 2
    direct = next(f for f in hits if "GENERATOR" in f.message)
    assert "rng_from_seed(...)" in direct.message
    hop = next(f for f in hits if "_shared" in f.message)
    # the propagation path crosses make_rng's return-value summary
    assert "returned by `pkg.flows.make_rng()`" in hop.message


def test_rng005_closure_capture():
    report = deep_lint(root=FIXTURES / "rng_taint")
    hits = [f for f in report.findings if f.code == "RNG005"]
    assert len(hits) == 1
    assert "`rng`" in hits[0].message and "sampler" in hits[0].message


def test_deep_noqa_suppression_honoured():
    report = deep_lint(root=FIXTURES / "rng_taint")
    assert report.suppressed == 1  # the ALLOWED global carries a noqa
    assert not any("ALLOWED" in f.message for f in report.findings)


def test_err003_cli_boundary_leak():
    report = deep_lint(root=FIXTURES / "boundary")
    hits = [f for f in report.findings if f.path.endswith("cli.py")]
    assert [f.code for f in hits] == ["ERR003"]
    message = hits[0].message
    assert "ValueError" in message and "_cmd_run()" in message
    # the chain walks from the raise site through the helper to the entry
    assert "raise `ValueError`" in message
    assert "through `pkg.cli.helper()`" in message
    # the sanctioned translation in _cmd_ok is not flagged
    assert not any("_cmd_ok" in f.message for f in report.findings)


def test_err003_route_boundary_leak():
    report = deep_lint(root=FIXTURES / "boundary")
    hits = [f for f in report.findings if f.path.endswith("routes.py")]
    assert [f.code for f in hits] == ["ERR003"]
    assert "KeyError" in hits[0].message
    assert "handle_lookup()" in hits[0].message
    # ServiceError is the route contract; handle_ok stays clean
    assert not any("handle_ok" in f.message for f in report.findings)


def test_api001_documented_symbol_deleted():
    report = deep_lint(root=FIXTURES / "api_drift")
    hits = [f for f in report.findings if f.code == "API001"]
    assert [f.path for f in hits] == ["docs/API.md"]
    assert "vanished_function" in hits[0].message


def test_api002_dead_public_export():
    report = deep_lint(root=FIXTURES / "api_drift")
    hits = [
        f for f in report.findings
        if f.code == "API002" and f.path == "pkg/__init__.py"
    ]
    assert len(hits) == 1
    assert "orphan_export" in hits[0].message
    # the documented-and-defined symbol is not flagged
    assert not any("`kept`" in f.message for f in report.findings)


def test_api002_undocumented_package():
    report = deep_lint(root=FIXTURES / "api_drift")
    hits = [
        f for f in report.findings
        if f.code == "API002" and f.path == "pkg/hidden/__init__.py"
    ]
    assert [(f.line, f.col) for f in hits] == [(1, 1)]
    assert "`pkg.hidden`" in hits[0].message


# -- registry + select/ignore ------------------------------------------------


def test_deep_registry_covers_the_issue_codes():
    assert {
        "CCY001", "CCY002", "CCY003", "RNG004", "RNG005",
        "ERR003", "API001", "API002",
    } <= deep_codes()
    assert len(all_deep_rules()) >= 4


def test_deep_select_and_ignore():
    only_ccy = deep_lint(root=FIXTURES / "ccy", select=["CCY003"])
    assert [f.code for f in only_ccy.findings] == ["CCY003"]
    none = deep_lint(
        root=FIXTURES / "ccy", ignore=["CCY001", "CCY002", "CCY003"]
    )
    assert none.clean


def test_deep_unknown_code_rejected():
    with pytest.raises(ValueError):
        deep_lint(root=FIXTURES / "ccy", select=["NOPE99"])


# -- the gate: the shipped tree is deep-clean --------------------------------


def test_shipped_tree_is_deep_clean():
    report = deep_lint(root=REPO_ROOT)
    rendered = "\n".join(f.render() for f in report.findings)
    assert report.clean, f"deep lint violations:\n{rendered}"
    assert report.files > 100  # the graph really covered the program


def test_committed_deep_baseline_is_empty():
    # CI subtracts this file; an entry appearing here must be a reviewed
    # exception, and the shipped tree holds at zero
    baseline = json.loads(
        (REPO_ROOT / "tools" / "deep_baseline.json").read_text()
    )
    assert baseline["findings"] == []


# -- CLI flags ---------------------------------------------------------------


def test_cli_deep_flag_on_fixture(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES / "ccy")
    assert main(["--deep", "--select", "CCY001,CCY002,CCY003", "."]) == 1
    out = capsys.readouterr().out
    assert "CCY001" in out and "CCY002" in out and "CCY003" in out


def test_cli_deep_codes_require_deep_flag(capsys):
    assert main(["--select", "CCY001", "."]) == 2
    err = capsys.readouterr().err
    assert "unknown rule code" in err and "--deep" in err


def test_cli_list_rules_includes_deep(capsys):
    assert main(["--deep", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "[whole-program]" in out
    assert "CCY001/CCY002/CCY003" in out
    assert "ERR003" in out


def test_cli_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    flat = " ".join(capsys.readouterr().out.split())
    assert "exit codes: 0 = clean" in flat
    assert "2 = usage error" in flat


def test_cli_stats_table(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES / "rng_taint")
    assert main(["--deep", "--stats", "--select", "RNG004,RNG005", "."]) == 1
    out = capsys.readouterr().out
    assert "rule timings:" in out
    assert "RNG004" in out and "ms" in out


def test_cli_stats_in_json(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES / "api_drift")
    code = main(
        ["--deep", "--stats", "--format", "json",
         "--select", "API001,API002", "."]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert "API001" in payload["timings"]
    assert {f["code"] for f in payload["findings"]} == {"API001", "API002"}


def test_cli_baseline_subtracts_findings(monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(FIXTURES / "boundary")
    report = deep_lint(root=FIXTURES / "boundary")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(report.to_json()))
    code = main(
        ["--deep", "--select", "ERR003", "--baseline", str(baseline), "."]
    )
    assert code == 0
    assert "2 baselined" in capsys.readouterr().out


def test_cli_baseline_unreadable_is_usage_error(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES / "boundary")
    assert main(["--deep", "--baseline", "missing.json", "."]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_cli_changed_only_scopes_to_git_diff(monkeypatch, tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    git = ["git", "-c", "user.email=t@t", "-c", "user.name=t"]
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    committed = repo / "committed.py"
    committed.write_text("import time\ntime.time()\n")  # DET001, committed
    subprocess.run(git + ["add", "."], cwd=repo, check=True)
    subprocess.run(git + ["commit", "-qm", "seed"], cwd=repo, check=True)
    fresh = repo / "fresh.py"
    fresh.write_text("d = {}\nd.popitem()\n")  # DET003, uncommitted
    monkeypatch.chdir(repo)
    assert main(["--changed-only", "."]) == 1
    out = capsys.readouterr().out
    assert "fresh.py" in out and "DET003" in out
    assert "committed.py" not in out
    assert "1 file(s)" in out


def test_cli_changed_only_outside_git_is_usage_error(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.chdir(tmp_path)
    assert main(["--changed-only", "."]) == 2
    assert "git" in capsys.readouterr().err
