"""Noise-band comparison of two benchmark result files.

``run.py compare A.json B.json`` treats ``A`` as the parent and ``B`` as the
change, pairs their untraced runs of the same workload and seed, and gives every
(workload, end-to-end metric) pair one verdict:

``improved``
    the change wins at least nine tenths of the pairs (ties count for
    neither) and its median beats the parent's by more than the parent's
    own spread, the distance between its quartiles;
``regressed``
    the change's median is worse than the parent's by more than the
    metric's bound in ``BENCHMARK.json``;
``unresolved``
    fewer than ten pairs were run; or the parent's relative spread is wider
    than the bound, so a regression could hide in it — unless every run of
    the change beats every run of the parent;
``unchanged``
    none of the above.

A workload whose change runs fail more ops than the parent's regresses on
``failed`` (an absolute bound of zero).  Exit code 1 if anything regressed.

The output also gives each side's median host probe (a fixed pure-Python
loop timed between rounds): when the two differ, the host ran at another
speed during one side's runs, and time verdicts are suspect.
"""

from __future__ import annotations

import json
import math
import pathlib
import statistics

ROOT = pathlib.Path(__file__).resolve().parents[2]
#: Fewest parent/change pairs a verdict other than ``unresolved`` rests on.
MIN_PAIRS = 10


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(records: list[dict]) -> dict:
    """Median, quartiles and relative spread per (workload, metric).

    ``bounds`` proposes each end-to-end metric's regression bound from the
    untraced runs: three times its worst relative spread over the
    workloads, at least 0.05 and at most 0.25.
    """
    values: dict[tuple[str, int, str], list[float]] = {}
    for record in records:
        for name, metric in record["metrics"].items():
            key = (record["workload"], record["trace"], name)
            values.setdefault(key, []).append(metric["value"])
    summary: dict = {"bounds": {}}
    for (workload, trace, name), series in sorted(values.items()):
        median = statistics.median(series)
        q1, q3 = _quartiles(series)
        spread = (q3 - q1) / abs(median) if median else 0.0
        summary.setdefault(f"{workload}/trace={trace}", {})[name] = {
            "runs": len(series),
            "median": median,
            "q1": q1,
            "q3": q3,
            "rel_iqr": spread,
        }
        if not trace:
            proposed = min(0.25, max(0.05, math.ceil(300 * spread) / 100))
            bounds = summary["bounds"]
            bounds[name] = max(bounds.get(name, 0.0), proposed)
    return summary


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One (workload, metric) verdict over paired runs; see the module docstring."""
    if len(parent) < MIN_PAIRS:
        return "unresolved"
    sign = -1.0 if better == "lower" else 1.0
    gains = [sign * (b - a) for a, b in zip(parent, change)]
    wins = sum(gain > 0 for gain in gains)
    parent_median = statistics.median(parent)
    gain = sign * (statistics.median(change) - parent_median)
    q1, q3 = _quartiles(parent)
    scale = abs(parent_median) or 1.0
    if wins >= 0.9 * len(gains) and gain > q3 - q1:
        return "improved"
    if (q3 - q1) / scale > bound:
        every = min(sign * b for b in change) > max(sign * a for a in parent)
        return "unchanged" if every else "unresolved"
    if -gain / scale > bound:
        return "regressed"
    return "unchanged"


def _paired(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    """Runs of the two sides on the same seed."""
    by_seed = {run["seed"]: run for run in change}
    return [(run, by_seed[run["seed"]]) for run in parent if run["seed"] in by_seed]


def compare(parent_doc: dict, change_doc: dict, benchmark: dict) -> list[dict]:
    """Verdict rows for every workload both documents ran untraced."""
    def untraced(doc: dict) -> dict[str, list[dict]]:
        runs: dict[str, list[dict]] = {}
        for run in doc["runs"]:
            if not run["trace"]:
                runs.setdefault(run["workload"], []).append(run)
        return runs

    parent_runs, change_runs = untraced(parent_doc), untraced(change_doc)
    rows = []
    for workload in parent_runs:
        pairs = _paired(parent_runs[workload], change_runs.get(workload, []))
        if not pairs:
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [p["metrics"][name]["value"] for p, _ in pairs]
            b = [c["metrics"][name]["value"] for _, c in pairs]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "pairs": len(pairs),
                "parent": statistics.median(a),
                "change": statistics.median(b),
                "verdict": verdict(a, b, metric["better"], metric["bound"]),
            })
        failed_a = sum(p["failed"] for p, _ in pairs)
        failed_b = sum(c["failed"] for _, c in pairs)
        rows.append({
            "workload": workload, "metric": "failed", "unit": "count",
            "pairs": len(pairs), "parent": failed_a, "change": failed_b,
            "verdict": "regressed" if failed_b > failed_a else "unchanged",
        })
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare PARENT.json CHANGE.json")
        return 2
    parent_doc, change_doc = (json.loads(pathlib.Path(p).read_text()) for p in argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(parent_doc, change_doc, benchmark)
    # the host's own speed during each side's runs, to read the verdicts by
    for label, doc in (("parent", parent_doc), ("change", change_doc)):
        probes = [run["probe_s"] * 1e3 for run in doc["runs"]]
        print(f"host probe, {label}: median {statistics.median(probes):.2f} ms "
              f"over {len(probes)} runs")
    for row in rows:
        delta = (
            f"{(row['change'] - row['parent']) / abs(row['parent']) * 100:+7.1f}%"
            if row["parent"] else "        "
        )
        print(f"{row['workload']:20s} {row['metric']:12s} "
              f"{row['parent']:>12.5g} -> {row['change']:>12.5g} {row['unit']:5s} "
              f"{delta}  {row['pairs']:3d} pairs  {row['verdict']}")
    print(json.dumps({"rows": rows}))
    return int(any(row["verdict"] == "regressed" for row in rows))
