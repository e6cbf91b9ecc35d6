"""Dense or sparse?  The two user operations where the sparse resolver can win.

The sparse SINR resolver (:mod:`repro.sinr.sparse`) keeps the near field
exact and charges the far field with the paper's Lemma 3 cap, so it only
pays off where a large sender set meets a large deployment.  Two user
operations can get there, and this script times both, once per backend:

* ``mw`` — one audited MW coloring run, the ``repro color`` path
  (:func:`repro.coloring.runner.run_mw_coloring`), at
  n in {400, 1500, 3000};
* ``srs`` — one Corollary 1 SRS flooding run, the ``repro srs`` path
  (UDG, greedy distance-(d+1) coloring, TDMA frame,
  :func:`repro.mac.srs.simulate_uniform_algorithm`), at
  n in {10^3, 10^4, 4*10^4}, flooding the source's connected component
  (the command itself refuses disconnected deployments).

Each at alpha in {4, 8} (``R_I`` = 48 and ~5.5 R_T), the repo's baseline
density of 100 nodes per 36 unit^2 and deployment seed 1.  One run per
cell, whole operation wall clock (deployment built outside the clock).

Before anything is timed, every size is cross-checked: the sparse
delivery set must be contained in the dense one (the certified far
term only ever suppresses deliveries).  For ``mw`` the check replays the
sender sets of the first ``CHECK_SLOTS`` active slots of a sparse run on
a dense channel; for ``srs`` every color class of the TDMA frame
transmits at once.  A divergence is a bug, not noise.

The full run writes ``BENCH_sparse.json`` next to this file (the
committed numbers) and prints the "Dense or sparse?" table of
``docs/SCALING.md``; ``--table`` prints that table from the committed
JSON without running anything.  ``--quick`` (CI smoke) runs one small
cell of each operation, checked and timed, and writes only with
``--out``.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_sparse.py          # full, ~40 min
    PYTHONPATH=src python benchmarks/perf/bench_sparse.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/perf/bench_sparse.py --table  # docs table

(The script falls back to inserting ``src/`` into ``sys.path`` itself, so
plain ``python benchmarks/perf/bench_sparse.py`` also works.)
"""

from __future__ import annotations

import argparse
import json
import math
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

import numpy as np

from repro.algorithms.classical import greedy_coloring
from repro.coloring.runner import run_mw_coloring
from repro.geometry.deployment import uniform_deployment
from repro.graphs.power import power_graph
from repro.graphs.udg import UnitDiskGraph
from repro.mac.srs import simulate_uniform_algorithm
from repro.mac.tdma import TDMASchedule
from repro.messaging.algorithms import FloodingBroadcast
from repro.sinr.channel import SINRChannel, Transmission
from repro.sinr.params import PhysicalParams

OUT = HERE / "BENCH_sparse.json"

#: nodes per unit^2 of the repo's n=100, extent-6 baseline density
DENSITY = 100 / 36.0
SEED = 1
ALPHAS = (4.0, 8.0)
FULL = {"mw": (400, 1500, 3000), "srs": (1_000, 10_000, 40_000)}
QUICK = {"mw": (100,), "srs": (1_000,)}

#: active MW slots whose sender sets the cross-check replays on dense
CHECK_SLOTS = 300


#: frame cap for flooding; the flood halts long before it on every cell
MAX_ROUNDS = 2_000


class _Checked(Exception):
    """Ends the MW cross-check run once ``CHECK_SLOTS`` slots are checked."""


def _params(alpha: float) -> PhysicalParams:
    return PhysicalParams(alpha=alpha).with_r_t(1.0)


def _positions(n: int) -> np.ndarray:
    return uniform_deployment(n, math.sqrt(n / DENSITY), seed=SEED).positions


class _SubsetCheck:
    """Slot observer: the sparse deliveries of each slot ⊆ dense ones."""

    def __init__(self, dense: SINRChannel, limit: int | None = None) -> None:
        self.dense = dense
        self.limit = limit
        self.slots = 0
        self.deliveries = 0

    def on_slot_end(self, slot, transmissions, deliveries) -> None:
        sparse = {(d.receiver, d.sender) for d in deliveries}
        dense = {(d.receiver, d.sender) for d in self.dense.resolve(transmissions)}
        if not sparse <= dense:
            raise SystemExit(f"slot {slot}: sparse deliveries not a subset of dense")
        self.slots += 1
        self.deliveries += len(sparse)
        if self.slots == self.limit:
            raise _Checked


def _check_mw(positions: np.ndarray, params: PhysicalParams) -> dict:
    check = _SubsetCheck(SINRChannel(positions, params), limit=CHECK_SLOTS)
    try:
        run_mw_coloring(
            positions, params, seed=SEED, resolver="sparse", observers=(check,)
        )
    except _Checked:
        pass
    return {"checked_slots": check.slots, "checked_deliveries": check.deliveries}


def _run_mw(positions: np.ndarray, params: PhysicalParams, resolver: str) -> dict:
    result = run_mw_coloring(positions, params, seed=SEED, resolver=resolver)
    return {
        "slots": result.stats.slots_run,
        "ok": bool(
            result.stats.completed
            and result.is_proper()
            and not result.audit_violations
        ),
    }


def _component(positions: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """The positions of the deployment's largest connected component."""
    graph = UnitDiskGraph(positions, params.r_t)
    return positions[graph.connected_components()[0]]


def _schedule(graph: UnitDiskGraph, params: PhysicalParams) -> TDMASchedule:
    return TDMASchedule(
        greedy_coloring(power_graph(graph, params.mac_distance + 1))
    )


def _check_srs(positions: np.ndarray, params: PhysicalParams) -> dict:
    schedule = _schedule(UnitDiskGraph(positions, params.r_t), params)
    dense = SINRChannel(positions, params)
    sparse = SINRChannel(positions, params, resolver="sparse")
    check = _SubsetCheck(dense)
    for slot in range(schedule.frame_length):
        transmissions = [
            Transmission(int(s), None) for s in schedule.nodes_in_slot(slot)
        ]
        if transmissions:
            check.on_slot_end(slot, transmissions, sparse.resolve(transmissions))
    return {"checked_slots": check.slots, "checked_deliveries": check.deliveries}


def _run_srs(positions: np.ndarray, params: PhysicalParams, resolver: str) -> dict:
    graph = UnitDiskGraph(positions, params.r_t)
    schedule = _schedule(graph, params)
    report = simulate_uniform_algorithm(
        graph,
        [FloodingBroadcast(source=0) for _ in range(graph.n)],
        schedule,
        params,
        max_rounds=MAX_ROUNDS,
        resolver=resolver,
    )
    return {
        "slots": report.slots,
        "ok": bool(report.halted and report.exact),
    }


OPERATIONS = {"mw": (_check_mw, _run_mw), "srs": (_check_srs, _run_srs)}


def _measure(operation: str, n: int, alpha: float) -> dict:
    params = _params(alpha)
    positions = _positions(n)
    if operation == "srs":
        positions = _component(positions, params)
    check, run = OPERATIONS[operation]
    row = {"operation": operation, "n": n, "nodes": len(positions), "alpha": alpha}
    row.update(check(positions, params))
    for resolver in ("dense", "sparse"):
        began = time.perf_counter()
        outcome = run(positions, params, resolver)
        row[f"{resolver}_s"] = round(time.perf_counter() - began, 2)
        row[f"{resolver}_slots"] = outcome["slots"]
        row[f"{resolver}_ok"] = outcome["ok"]
    row["sparse_speedup"] = round(row["dense_s"] / row["sparse_s"], 2)
    print(
        f"{operation} n={n:>6,} alpha={alpha:g}: dense {row['dense_s']:.2f}s, "
        f"sparse {row['sparse_s']:.2f}s ({row['checked_slots']} slots checked)",
        flush=True,
    )
    return row


def _power_of_ten(n: int) -> str:
    """``40000`` -> ``4·10⁴``; small round numbers stay plain."""
    if n < 10_000:
        return str(n)
    exponent = int(math.log10(n))
    mantissa = n // 10**exponent
    superscript = str(exponent).translate(str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹"))
    head = "" if mantissa == 1 else f"{mantissa}·"
    return f"{head}10{superscript}"


def markdown_table(report: dict) -> str:
    """The "Dense or sparse?" table of ``docs/SCALING.md``."""
    lines = [
        "| operation | n | α | dense s | sparse s | dense / sparse | faster |",
        "|---|---|---|---|---|---|---|",
    ]
    for row in report["results"]:
        faster = "sparse" if row["sparse_s"] < row["dense_s"] else "dense"
        lines.append(
            f"| {row['operation']} | {_power_of_ten(row['n'])} | "
            f"{row['alpha']:g} | {row['dense_s']:.2f} | {row['sparse_s']:.2f} | "
            f"{row['sparse_speedup']:.2f} | {faster} |"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick", action="store_true", help="one small cell per operation (CI)"
    )
    mode.add_argument(
        "--table", action="store_true",
        help="print the docs table from the committed JSON and exit",
    )
    parser.add_argument("--out", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)

    if args.table:
        print(markdown_table(json.loads(OUT.read_text())))
        return 0

    sizes = QUICK if args.quick else FULL
    alphas = (8.0,) if args.quick else ALPHAS
    results = [
        _measure(operation, n, alpha)
        for operation, ns in sizes.items()
        for n in ns
        for alpha in alphas
    ]
    report = {
        "benchmark": "sparse-resolver-operations",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "density": DENSITY,
        "seed": SEED,
        "note": (
            "one run per cell, whole-operation wall clock in seconds: mw is "
            "the audited run_mw_coloring (repro color), srs is SRS flooding over "
            "the largest connected component (repro srs); sparse deliveries "
            "cross-checked as a subset of dense before timing"
        ),
        "results": results,
    }
    out = args.out if args.out is not None else (None if args.quick else OUT)
    if out is not None:
        out.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")
    print(markdown_table(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
