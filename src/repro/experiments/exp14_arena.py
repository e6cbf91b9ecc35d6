"""EXP-14 — the algorithm arena: competitors under one harness.

Head-to-head comparison of every registered coloring algorithm
(:mod:`repro.algorithms`) under *identical* deployments, seeds,
wake-up schedules and fault plans: per algorithm the palette actually
used, the run-exact palette bound, convergence slots, and the TDMA
delivery rate of the induced frame on the ``mac/`` verify path
(:func:`repro.invariants.verify_tdma_broadcast`).  The ``algorithm``
axis is discovered from the registry, so a newly registered entry
joins the arena (and its sweep config hashes) without touching this
module.

The ``algorithm`` unit constant doubles as the CLI selector: ``"all"``
(or ``None``) sweeps the whole zoo, a name runs one entry, and a
comma-separated list picks a head-to-head subset.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from ..algorithms import algorithm_names, run_coloring_algorithm
from ..faults.plan import FaultPlan
from ..geometry.deployment import uniform_deployment
from ..invariants import verify_tdma_broadcast
from ..sinr.params import PhysicalParams
from ._units import grid_units

TITLE = "EXP-14: algorithm arena (palette / convergence / TDMA delivery)"
COLUMNS = [
    "algorithm", "seed", "n", "delta", "colors", "max_color",
    "palette_bound", "within_bound", "convergence_slots", "frame_slots",
    "delivery_rate", "proper", "clean", "completed",
]
DEFAULT_N = 36
DEFAULT_EXTENT = 4.0

__all__ = [
    "COLUMNS", "TITLE", "check", "run_single",
    "select_algorithms", "units",
]


def select_algorithms(
    algorithm: str | Sequence[str] | None,
) -> tuple[str, ...]:
    """Resolve the CLI/units selector into registry names.

    ``None`` and ``"all"`` mean the whole zoo; a comma-separated string
    picks a subset (validated against the registry so a typo fails the
    plan, not the worker).
    """
    from ..algorithms import get_algorithm

    if algorithm is None or algorithm == "all":
        return algorithm_names()
    if isinstance(algorithm, str):
        picked = tuple(part.strip() for part in algorithm.split(",") if part.strip())
    else:
        picked = tuple(str(part) for part in algorithm)
    for name in picked:
        get_algorithm(name)  # raises ConfigurationError on unknowns
    return picked


def run_single(
    seed: int,
    algorithm: str,
    n: int = DEFAULT_N,
    extent: float = DEFAULT_EXTENT,
    faults: Mapping | FaultPlan | None = None,
) -> dict:
    """One algorithm on one deployment — one arena row.

    The deployment (and the fault plan's derived wake-up schedule)
    depends only on ``(seed, n, extent)``, never on the algorithm, so
    rows sharing a seed are a controlled head-to-head.
    """
    params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(n, extent, seed=seed)
    plan = FaultPlan.coerce(faults) if faults is not None else None
    outcome = run_coloring_algorithm(
        algorithm,
        deployment,
        params,
        seed=seed + 500,
        faults=plan,
    )
    if outcome.completed:
        schedule = outcome.schedule()
        report = verify_tdma_broadcast(outcome.graph, schedule, params)
        frame_slots = schedule.frame_length
        delivery_rate = round(report.success_rate, 6)
    else:
        frame_slots = -1
        delivery_rate = 0.0
    return {
        "algorithm": algorithm,
        "seed": seed,
        "n": outcome.n,
        "delta": max(1, outcome.graph.max_degree),
        "colors": outcome.num_colors,
        "max_color": outcome.max_color,
        "palette_bound": outcome.palette_bound,
        "within_bound": not outcome.palette_violations(),
        "convergence_slots": outcome.convergence_slots,
        "frame_slots": frame_slots,
        "delivery_rate": delivery_rate,
        "proper": outcome.is_proper(),
        "clean": outcome.clean,
        "completed": outcome.completed,
    }


def units(
    seeds: Sequence[int] = (0, 1),
    algorithm: str | Sequence[str] | None = None,
    n: int = DEFAULT_N,
    extent: float = DEFAULT_EXTENT,
    faults: Mapping | None = None,
) -> list[dict]:
    """The sweep as shardable work units, in canonical row order."""
    return grid_units(
        "run_single",
        {"algorithm": select_algorithms(algorithm)},
        seeds,
        n=n,
        extent=extent,
        faults=faults,
    )


def check(rows: Sequence[dict]) -> None:
    """Arena acceptance: invariants hold and the claimed bounds rank.

    Robust to subsets (CI smoke runs two algorithms), but when the MW
    reference and the Fuchs-Prutkin competitor are both present their
    headline comparison — FP's ``Delta+1`` palette never exceeds MW's
    spaced palette bound — must hold row for row.
    """
    assert rows, "no experiment rows"
    for row in rows:
        label = f"{row['algorithm']} seed {row['seed']}"
        assert row["completed"], f"{label}: did not complete"
        assert row["proper"], f"{label}: improper coloring"
        assert row["within_bound"], f"{label}: palette bound violated"
        assert row["clean"], f"{label}: invariant audit failed"
        assert 0.0 < row["delivery_rate"] <= 1.0, (
            f"{label}: TDMA frame delivered nothing"
        )
    by_algorithm: dict[str, list[dict]] = {}
    for row in rows:
        by_algorithm.setdefault(row["algorithm"], []).append(row)
    for name, group in sorted(by_algorithm.items()):
        palettes = {row["seed"]: row["colors"] for row in group}
        assert all(size >= 1 for size in palettes.values()), (
            f"{name}: empty palette"
        )
    if "fuchs_prutkin" in by_algorithm and "mw" in by_algorithm:
        mw_bound = {
            row["seed"]: row["palette_bound"] for row in by_algorithm["mw"]
        }
        for row in by_algorithm["fuchs_prutkin"]:
            seed = row["seed"]
            if seed in mw_bound:
                assert row["palette_bound"] <= mw_bound[seed], (
                    f"seed {seed}: FP palette bound {row['palette_bound']} "
                    f"exceeds MW's {mw_bound[seed]}"
                )
