"""Docs hygiene: local references in the markdown docs must resolve."""

import pathlib
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_local_doc_references_resolve():
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "check_docs.py")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode == 0, completed.stderr


def test_expected_docs_exist():
    for name in (
        "README.md",
        "docs/API.md",
        "docs/OBSERVABILITY.md",
        "docs/PERFORMANCE.md",
        "docs/ALGORITHM.md",
        "docs/MODEL.md",
    ):
        assert (REPO_ROOT / name).exists(), f"missing {name}"


def test_scaling_table_matches_the_committed_bench():
    """docs/SCALING.md's dense-or-sparse table is the one
    ``bench_sparse.py --table`` renders from ``BENCH_sparse.json``."""
    import importlib.util
    import json

    path = REPO_ROOT / "benchmarks" / "perf" / "bench_sparse.py"
    spec = importlib.util.spec_from_file_location("bench_sparse", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    report = json.loads(bench.OUT.read_text())
    scaling = (REPO_ROOT / "docs" / "SCALING.md").read_text()
    assert bench.markdown_table(report) in scaling
