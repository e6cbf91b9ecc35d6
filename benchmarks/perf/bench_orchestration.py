"""Orchestration scaling benchmark: serial sweep vs ``run_sharded``.

Times two workloads through the exact code paths ``repro sweep`` uses and
writes the result table to ``BENCH_orchestration.json`` next to this file.
That JSON is committed: it is the repo's orchestration baseline, and
future PRs regress against it.

Workloads:

``exp1`` (cpu-bound)
    The real EXP-1 multi-seed density sweep.  Worker processes contend
    for physical cores, so the achievable speedup is
    ``min(jobs, cpu_count)`` — on a many-core machine this shows the
    end-to-end win; on a 1-core CI box it honestly shows ~1x.  The bench
    records ``cpu_count`` alongside so the number is interpretable, and
    cross-checks the merged parallel rows against the serial table
    before timing (a benchmark that measures a wrong answer is worse
    than none).

``latency`` (wait-bound)
    A sweep whose units wait rather than compute, so shard overlap is
    not capped by core count.  This isolates what the orchestration
    layer itself contributes: submission windowing, shard dispatch,
    result collection.  Speedup here should track ``jobs`` minus the
    per-shard overhead — it is the scaling headline recorded as
    ``speedup`` in the JSON, and the ``>= 2x at --jobs 4`` acceptance
    line in docs/ORCHESTRATION.md refers to it.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_orchestration.py          # full
    PYTHONPATH=src python benchmarks/perf/bench_orchestration.py --quick  # CI
    PYTHONPATH=src python benchmarks/perf/bench_orchestration.py --jobs 8

(The script falls back to inserting ``src/`` into ``sys.path`` itself, so
plain ``python benchmarks/perf/bench_orchestration.py`` also works.)
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent

try:  # allow running without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments import exp01_colors_vs_delta as exp1
from repro.experiments import run_units
from repro.experiments._units import grid_units
from repro.orchestration import merged_rows, run_sharded

OUT = HERE / "BENCH_orchestration.json"

# ---------------------------------------------------------------------------
# The latency-bound fixture experiment.  This module doubles as the
# experiment module: workers import it by dotted name (``fork`` children
# inherit the sys.path entry added below), so the wait units run through
# plan_shards/execute_shard exactly like a registry experiment's.
# ---------------------------------------------------------------------------

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

MODULE = "bench_orchestration"


def wait_unit(seed: int, index: int, wait_s: float) -> dict:
    """One latency-bound work unit: wait, then emit a row."""
    time.sleep(wait_s)
    return {"index": index, "seed": seed, "wait_s": wait_s}


def units(seeds=(0,), indices=range(16), wait_s: float = 0.5) -> list[dict]:
    """Shardable wait units, same canonical order as a grid sweep."""
    return grid_units("wait_unit", {"index": list(indices)}, seeds, wait_s=wait_s)


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def _measure(label, serial_fn, experiment, *, jobs, unit_kwargs, module=None):
    """Time the serial path, then the sharded path; cross-check rows."""
    start = time.perf_counter()
    serial_rows = serial_fn()
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    result = run_sharded(
        experiment, jobs=jobs, unit_kwargs=unit_kwargs, module=module
    )
    parallel_s = time.perf_counter() - start
    if not result.complete:  # pragma: no cover - bench guard
        raise SystemExit(f"{label}: sharded sweep incomplete: {result.failures}")
    parallel_rows = merged_rows(result)
    if json.dumps(parallel_rows, default=repr) != json.dumps(
        serial_rows, default=repr
    ):  # pragma: no cover - bench guard
        raise SystemExit(f"{label}: parallel rows diverge from serial rows")

    return {
        "workload": label,
        "units": result.num_shards,
        "jobs": jobs,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--quick", action="store_true", help="small workload for CI smoke"
    )
    parser.add_argument("--out", type=pathlib.Path, default=OUT)
    args = parser.parse_args(argv)

    if args.quick:
        exp1_kwargs = {"seeds": [0], "extents": [9.0, 6.5]}
        wait_kwargs = {"seeds": [0], "indices": range(8), "wait_s": 0.1}
    else:
        exp1_kwargs = {"seeds": [0, 1], "extents": list(exp1.DEFAULT_EXTENTS)}
        wait_kwargs = {"seeds": [0], "indices": range(16), "wait_s": 0.5}

    results = [
        _measure(
            "exp1 multi-seed density sweep (cpu-bound)",
            lambda: run_units(exp1.__name__, exp1.units(**exp1_kwargs)),
            "exp1",
            jobs=args.jobs,
            unit_kwargs=exp1_kwargs,
        ),
        _measure(
            "latency-bound sweep (orchestration scaling)",
            lambda: run_units(MODULE, units(**wait_kwargs)),
            "wait",
            jobs=args.jobs,
            unit_kwargs=wait_kwargs,
            module=MODULE,
        ),
    ]

    report = {
        "benchmark": "orchestration-scaling",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "jobs": args.jobs,
        "note": (
            "cpu-bound speedup is capped at min(jobs, cpu_count); the "
            "latency-bound workload isolates executor overlap and is the "
            "scaling headline"
        ),
        "results": results,
        # headline: what the orchestration layer itself delivers
        "speedup": results[-1]["speedup"],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for row in results:
        print(
            f"{row['workload']}: serial {row['serial_s']:.2f}s, "
            f"jobs={row['jobs']} {row['parallel_s']:.2f}s "
            f"-> {row['speedup']:.2f}x"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
