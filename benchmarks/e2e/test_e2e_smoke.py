"""Smoke test of the end-to-end benchmark at tiny sizes.

Runs every workload in-process, untraced and traced, with input sizes
passed as arguments, and checks that the emitted metrics are exactly those
``BENCHMARK.json`` declares, that every op passed its checks, and that
each traced op reproduced its untraced twin's digest.

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402  (sibling modules of this directory)
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())

TINY = {
    "color-mw-dense": {"n": 40, "extent": 3.8},
    "color-greedy-large": {"n": 400, "extent": 12.0},
    "sweep-arena": {"seeds": 1},
    "service-cold": {"round_size": 3},
    "service-cached": {"round_size": 20},
}


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


def test_per_layer_metrics_name_their_targets():
    targets = workloads.SPEC["per_layer_targets"]
    assert set(targets) == set(_units("per_layer"))
    for target in targets.values():
        assert set(target["workloads"]) <= set(workloads.WORKLOADS)
        assert set(target["moves"]) <= set(_units("end_to_end"))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_workload_emits_declared_metrics(name, trace, tmp_path):
    record = workloads.measure(
        name, seed=3, seconds=0.01, trace=trace, workdir=tmp_path,
        started=time.perf_counter(), sizes=TINY[name],
    )
    section = "per_layer" if trace else "end_to_end"
    emitted = {key: metric["unit"] for key, metric in record["metrics"].items()}
    assert emitted == _units(section)
    assert record["attempted"] >= 1
    # traced runs count a twin digest mismatch as a failed op
    assert record["failed"] == 0 and record["correct"]


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.05) == "improved"
    assert compare.verdict(parent, [v * 1.2 for v in parent], "lower", 0.05) == "regressed"
    assert compare.verdict(parent, list(parent), "lower", 0.05) == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, [v * 1.1 for v in noisy], "lower", 0.05) == "unresolved"
    # too few pairs for any verdict, however large the gain
    assert compare.verdict(parent[:9], [v * 0.5 for v in parent[:9]], "lower", 0.05) == "unresolved"
    assert compare.verdict([10.0], [1.0], "lower", 0.05) == "unresolved"


def test_tail_percentiles_need_ten_samples_beyond():
    assert workloads.reported_percentile(90, 400) == 90
    assert workloads.reported_percentile(90, 100) == 90
    assert workloads.reported_percentile(90, 99) == 50
    assert workloads.reported_percentile(90, 13) == 50
