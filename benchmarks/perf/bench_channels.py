"""Channel-resolution microbenchmarks: engine vs seed implementation.

Times one ``resolve`` call per channel type over constant-density uniform
deployments at n in {100, 500, 2000, 5000} with a 10% sender fraction,
against the frozen seed resolvers in :mod:`seed_baseline`, and writes the
result table to ``BENCH_channels.json`` next to this file.  That JSON is
committed: it is the repo's perf trajectory, and future PRs regress
against it.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_channels.py            # full
    PYTHONPATH=src python benchmarks/perf/bench_channels.py --quick    # CI
    PYTHONPATH=src python benchmarks/perf/bench_channels.py --out /tmp/b.json

(The script falls back to inserting ``src/`` into ``sys.path`` itself, so
plain ``python benchmarks/perf/bench_channels.py`` also works.)

Timing method: median of R repetitions (R adapted to the per-call cost)
after one warmup call.  Every engine's delivery list is cross-checked
against the seed resolver's before timing; a benchmark that measures a
wrong answer is worse than none.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import platform
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent

try:  # allow running without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.geometry.grid_index import GridIndex
from repro.sinr.channel import (
    CollisionFreeChannel,
    GraphChannel,
    ProtocolChannel,
    SINRChannel,
    Transmission,
)
from repro.sinr.params import PhysicalParams
from repro.simulation.rng import rng_from_seed

from seed_baseline import (
    seed_collision_free_resolve,
    seed_graph_resolve,
    seed_protocol_resolve,
    seed_sinr_resolve,
)

SENDER_FRACTION = 0.10
DENSITY = 4.0  # nodes per unit area; R_T = 1 keeps neighborhoods realistic
FULL_SIZES = (100, 500, 2000, 5000)
QUICK_SIZES = (100, 500, 2000)
GUARD = 0.5
DEFAULT_OUT = HERE / "BENCH_channels.json"


def make_workload(n: int, seed: int = 0):
    """Constant-density deployment plus a 10% random sender set."""
    rng = rng_from_seed(seed)
    extent = (n / DENSITY) ** 0.5
    positions = rng.uniform(0.0, extent, size=(n, 2))
    k = max(1, int(round(SENDER_FRACTION * n)))
    senders = np.sort(rng.choice(n, size=k, replace=False))
    transmissions = [Transmission(int(s), int(s)) for s in senders]
    return positions, transmissions


def time_callable(fn, budget_s: float = 0.6, max_reps: int = 50) -> float:
    """Median wall-clock seconds of repeated calls (one warmup discarded)."""
    fn()  # warmup: first-call allocations, caches
    start = time.perf_counter()
    fn()
    estimate = time.perf_counter() - start
    reps = max(3, min(max_reps, int(budget_s / max(estimate, 1e-9))))
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def delivery_set(deliveries):
    return {(d.receiver, d.sender, d.payload) for d in deliveries}


def bench_one(name, fast_fn, seed_fn):
    """Time fast vs seed paths and verify they agree."""
    fast = delivery_set(fast_fn())
    seed = delivery_set(seed_fn())
    if fast != seed:
        raise AssertionError(
            f"{name}: engine and seed resolvers disagree "
            f"({len(fast)} vs {len(seed)} deliveries)"
        )
    # ``resolve`` builds its Delivery objects lazily; list() makes the
    # engine pay for them, as the seed resolvers do.
    row = {
        "seed_ms": time_callable(seed_fn) * 1e3,
        "engine_ms": time_callable(lambda: list(fast_fn())) * 1e3,
    }
    row["speedup"] = row["seed_ms"] / row["engine_ms"]
    return row


def run_benchmarks(sizes) -> dict:
    params = PhysicalParams().with_r_t(1.0)
    results = []
    for n in sizes:
        positions, transmissions = make_workload(n)
        k = len(transmissions)
        print(f"n={n:5d} k={k:4d} ...", flush=True)

        sinr = SINRChannel(positions, params)
        graph = GraphChannel(positions, params.r_t)
        proto = ProtocolChannel(positions, params.r_t, guard=GUARD)
        free = CollisionFreeChannel(positions, params.r_t)
        grid = GridIndex(positions, cell_size=params.r_t)

        per_channel = {
            "sinr": bench_one(
                f"sinr@{n}",
                lambda: sinr.resolve(transmissions),
                lambda: seed_sinr_resolve(positions, params, transmissions),
            ),
            "graph": bench_one(
                f"graph@{n}",
                lambda: graph.resolve(transmissions),
                lambda: seed_graph_resolve(
                    positions, grid, params.r_t, transmissions
                ),
            ),
            "protocol": bench_one(
                f"protocol@{n}",
                lambda: proto.resolve(transmissions),
                lambda: seed_protocol_resolve(
                    positions, params.r_t, GUARD, transmissions
                ),
            ),
            "collision_free": bench_one(
                f"collision_free@{n}",
                lambda: free.resolve(transmissions),
                lambda: seed_collision_free_resolve(
                    positions, params.r_t, transmissions
                ),
            ),
        }
        for channel, row in per_channel.items():
            results.append({"channel": channel, "n": n, "k": k, **row})
    return {
        "benchmark": "channel-resolution",
        "sender_fraction": SENDER_FRACTION,
        "density": DENSITY,
        "guard": GUARD,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "results": results,
    }


def format_report(report: dict) -> str:
    lines = [
        f"{'channel':<16}{'n':>6}{'k':>6}{'seed ms':>10}{'engine ms':>11}"
        f"{'speedup':>9}"
    ]
    for row in report["results"]:
        lines.append(
            f"{row['channel']:<16}{row['n']:>6}{row['k']:>6}"
            f"{row['seed_ms']:>10.3f}{row['engine_ms']:>11.3f}"
            f"{row['speedup']:>8.1f}x"
        )
    return "\n".join(lines)


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
        help="where to write the JSON baseline (default: BENCH_channels.json)",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else FULL_SIZES
    report = run_benchmarks(sizes)
    print()
    print(format_report(report))
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
