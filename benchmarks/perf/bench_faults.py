"""Fault-layer overhead microbenchmark: bare channel vs empty-plan wrap.

An empty :class:`~repro.faults.FaultPlan` must be a no-op in both senses:
bit-identical deliveries (locked by the differential tests) and nearly
free.  This script times one ``resolve`` call per channel type over the
same constant-density workloads as ``bench_channels.py``, bare and
wrapped in ``FaultyChannel(channel, FaultPlan())``, and reports the
relative overhead.  The acceptance bar is **< 2%** on the SINR channel at
every size.  A third variant times a *working* fault plan (20% drop plus
one outage) to show what actual injection costs.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_faults.py            # full
    PYTHONPATH=src python benchmarks/perf/bench_faults.py --quick    # CI
    PYTHONPATH=src python benchmarks/perf/bench_faults.py --out /tmp/b.json

Timing: the three variants are sampled round-robin (so CPU-frequency
drift can't masquerade as overhead) and each reports its best-case over
adaptively many repetitions after one warmup call.  The wrapped
resolver's deliveries are cross-checked against the bare resolver's
before timing.  The bare resolver is timed twice in each round, and the
gap between its two best cases (``bare_spread``) is the noise floor of
the comparison: where it exceeds the bar, the table prints the empty-plan
overhead as ``unresolved`` (and so does the SINR verdict), since a
figure below the noise says nothing.  The overhead bar is report-only:
the verdict is printed and a miss still exits 0 (run-to-run noise on a
shared host exceeds the bar); the script exits non-zero only when it
fails or the cross-check does.
"""

from __future__ import annotations

import argparse
import json
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

import numpy as np

from repro.faults import FaultPlan, FaultyChannel, MessageFaults, NodeOutage
from repro.sinr.channel import (
    CollisionFreeChannel,
    GraphChannel,
    SINRChannel,
    Transmission,
)
from repro.sinr.params import PhysicalParams
from repro.simulation.rng import rng_from_seed

SENDER_FRACTION = 0.10
DENSITY = 4.0
FULL_SIZES = (100, 500, 2000, 5000)
QUICK_SIZES = (100, 500, 2000)
DEFAULT_OUT = HERE / "BENCH_faults.json"
OVERHEAD_BAR = 0.02  # empty-plan wrap must stay under 2% on SINR


def make_workload(n: int, seed: int = 0):
    rng = rng_from_seed(seed)
    extent = (n / DENSITY) ** 0.5
    positions = rng.uniform(0.0, extent, size=(n, 2))
    k = max(1, int(round(SENDER_FRACTION * n)))
    senders = np.sort(rng.choice(n, size=k, replace=False))
    transmissions = [Transmission(int(s), int(s)) for s in senders]
    return positions, transmissions


def time_interleaved(fns, budget_s: float = 2.5, max_reps: int = 200):
    """Best-case seconds per callable, sampled round-robin.

    Interleaving is the point: timing each variant in its own window
    lets CPU-frequency drift masquerade as a few percent of "overhead",
    which is the same order as the effect under test.  Round-robin
    sampling hands every variant the same share of any drift, and the
    per-variant minimum discards scheduler noise (the usual
    microbenchmark statistic when the effect under test is a few
    percent).
    """
    for fn in fns:
        fn()  # warmup: first-call allocations, caches
    start = time.perf_counter()
    fns[0]()
    estimate = time.perf_counter() - start
    reps = max(5, min(max_reps, int(budget_s / max(estimate * len(fns), 1e-9))))
    samples = [[] for _ in fns]
    for _ in range(reps):
        for fn, bucket in zip(fns, samples):
            start = time.perf_counter()
            fn()
            bucket.append(time.perf_counter() - start)
    return [min(bucket) for bucket in samples]


def bench_one(name, bare, wrapped, injecting):
    if bare() != wrapped():
        raise AssertionError(
            f"{name}: empty-plan wrap changed the delivery list"
        )
    bare_s, bare_again_s, wrapped_s, injecting_s = time_interleaved(
        (bare, bare, wrapped, injecting)
    )
    row = {
        "bare_ms": bare_s * 1e3,
        "bare_spread": abs(bare_again_s / bare_s - 1.0),
        "empty_plan_ms": wrapped_s * 1e3,
        "injecting_ms": injecting_s * 1e3,
    }
    row["empty_overhead"] = row["empty_plan_ms"] / row["bare_ms"] - 1.0
    row["injecting_overhead"] = row["injecting_ms"] / row["bare_ms"] - 1.0
    return row


def run_benchmarks(sizes) -> dict:
    params = PhysicalParams().with_r_t(1.0)
    working = FaultPlan(
        outages=[NodeOutage(node=0, start=0)],
        messages=MessageFaults(drop=0.2),
    )
    results = []
    for n in sizes:
        positions, transmissions = make_workload(n)
        k = len(transmissions)
        print(f"n={n:5d} k={k:4d} ...", flush=True)

        def variants(make):
            bare = make()
            empty = FaultyChannel(make(), FaultPlan(), seed=0)
            inject = FaultyChannel(make(), working, seed=0)
            return (
                lambda: bare.resolve(transmissions),
                lambda: empty.resolve(transmissions),
                lambda: inject.resolve(transmissions),
            )

        per_channel = {
            "sinr": bench_one(
                f"sinr@{n}", *variants(lambda: SINRChannel(positions, params))
            ),
            "graph": bench_one(
                f"graph@{n}",
                *variants(lambda: GraphChannel(positions, params.r_t)),
            ),
            "collision_free": bench_one(
                f"collision_free@{n}",
                *variants(
                    lambda: CollisionFreeChannel(positions, params.r_t)
                ),
            ),
        }
        for channel, row in per_channel.items():
            results.append({"channel": channel, "n": n, "k": k, **row})
    return {
        "benchmark": "fault-layer-overhead",
        "sender_fraction": SENDER_FRACTION,
        "density": DENSITY,
        "overhead_bar": OVERHEAD_BAR,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": results,
    }


def resolved(row: dict, bar: float) -> bool:
    """Whether the bare channel's repeat spread leaves the bar measurable."""
    return row["bare_spread"] <= bar


def format_report(report: dict) -> str:
    bar = report["overhead_bar"]
    lines = [
        f"{'channel':<16}{'n':>6}{'k':>6}{'bare ms':>10}{'spread':>9}"
        f"{'empty ms':>10}{'overhead':>11}{'inject ms':>11}{'overhead':>10}"
    ]
    for row in report["results"]:
        empty = (
            f"{row['empty_overhead']:>11.1%}" if resolved(row, bar)
            else f"{'unresolved':>11}"
        )
        lines.append(
            f"{row['channel']:<16}{row['n']:>6}{row['k']:>6}"
            f"{row['bare_ms']:>10.3f}{row['bare_spread']:>8.1%}"
            f"{row['empty_plan_ms']:>10.3f}{empty}"
            f"{row['injecting_ms']:>11.3f}{row['injecting_overhead']:>9.1%}"
        )
    return "\n".join(lines)


def check_bar(report: dict) -> None:
    bar = report["overhead_bar"]
    sinr = [row for row in report["results"] if row["channel"] == "sinr"]
    spread = max(row["bare_spread"] for row in sinr)
    if spread > bar:
        print(
            f"\nempty-plan SINR overhead: unresolved (bare repeat spread "
            f"{spread:.2%} exceeds the {bar:.0%} bar)"
        )
        return
    worst = max(row["empty_overhead"] for row in sinr)
    verdict = "PASS" if worst < bar else "FAIL"
    print(
        f"\nempty-plan SINR overhead: worst {worst:.2%} "
        f"(bar {bar:.0%}) -> {verdict}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=f"drop the largest size (run {QUICK_SIZES} only, for CI)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=DEFAULT_OUT,
        help="where to write the JSON baseline (default: BENCH_faults.json)",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    report = run_benchmarks(sizes)
    print()
    print(format_report(report))
    check_bar(report)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
