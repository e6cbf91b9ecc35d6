"""Command-line interface: ``python -m repro <command> ...``.

The subcommands expose the library's main flows without writing code:

* ``physics``  — print the derived geometry (R_T, R_max, R_I, d) for a set
  of physical constants.
* ``color``    — run a zoo coloring algorithm (default: the paper's MW)
  on a synthetic deployment and print the run summary (with the
  Theorem 1 audit); ``--algorithm`` selects any registry entry.
* ``mac``      — build greedy distance-k TDMA schedules and audit them
  under SINR (the Theorem 3 table).
* ``srs``      — simulate a uniform message-passing algorithm over the
  SINR MAC layer (Corollary 1) and compare against the reference run.
* ``estimate`` — run the degree-probing protocol (unknown-Delta extension).
* ``experiment`` — run a registered EXP-1..EXP-14 claim validation
  (``--jobs``/``--store``/``--resume`` route it through the parallel
  orchestrator).
* ``sweep``    — the full orchestration surface: sharded multi-process
  sweeps with a persistent run store, per-shard timeout and retry,
  graceful Ctrl-C drain and ``--resume`` (see docs/ORCHESTRATION.md).
* ``serve``    — long-running HTTP job API over the same orchestration
  layer: queued submissions, content-addressed result cache, streaming
  NDJSON telemetry (see docs/SERVICE.md).
* ``report``   — summarise a telemetry JSONL artifact offline.

``color``, ``srs`` and ``experiment`` take ``--telemetry-out FILE`` to
record the run (trace events, per-slot profile, metrics) as a JSONL
artifact that ``report`` — or any offline tooling — can consume; see
docs/OBSERVABILITY.md.  All commands are deterministic given ``--seed``
(telemetry never changes a run's outcome).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from . import __version__
from .algorithms import algorithm_names, run_coloring_algorithm
from .algorithms.classical import greedy_coloring
from .algorithms.mw import mw_run_result
from .analysis.tables import format_table
from .errors import ConfigurationError, ReproError
from .faults.plan import FaultPlan, load_fault_plan
from .coloring.estimation import estimate_degrees
from .coloring.runner import run_mw_coloring
from .geometry.deployment import (
    Deployment,
    clustered_deployment,
    grid_deployment,
    uniform_deployment,
)
from .graphs.power import power_graph
from .graphs.udg import UnitDiskGraph
from .mac.tdma import TDMASchedule
from .invariants import verify_tdma_broadcast
from .mac.srs import simulate_uniform_algorithm
from .messaging.algorithms import (
    BFSTreeAlgorithm,
    FloodingBroadcast,
    MaxIdLeaderElection,
)
from .messaging.model import run_uniform_rounds
from .sinr.params import PhysicalParams
from .telemetry import Telemetry, read_run

__all__ = ["main"]


def _telemetry_from(args: argparse.Namespace, command: str) -> Telemetry | None:
    """A :class:`Telemetry` bundle for ``--telemetry-out``, or None."""
    out = getattr(args, "telemetry_out", None)
    if out is None:
        return None
    meta = {
        "command": command,
        **{
            key: value
            for key, value in vars(args).items()
            if key not in ("func", "telemetry_out") and not callable(value)
        },
    }
    return Telemetry(out=out, meta=meta)


def _add_faults_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults",
        metavar="PLAN.json",
        default=None,
        help=(
            "fault-injection plan (schema repro.faults/1; see "
            "docs/ROBUSTNESS.md) — outages, jammers, message loss, "
            "slot skew, wake-up patterns"
        ),
    )


def _faults_from(args: argparse.Namespace) -> FaultPlan | None:
    """The validated ``--faults`` plan, or None when the flag is absent."""
    path = getattr(args, "faults", None)
    if path is None:
        return None
    return load_fault_plan(path)


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-out",
        metavar="FILE",
        default=None,
        help="write run telemetry (trace, per-slot profile, metrics) as JSONL",
    )


def _add_resolver_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--resolver",
        choices=["dense", "sparse"],
        default="dense",
        help=(
            "SINR interference backend: exact dense matrix (default) or "
            "the grid-bucketed sparse engine (color: --algorithm mw only; "
            "docs/SCALING.md)"
        ),
    )


def _add_algorithm_args(
    parser: argparse.ArgumentParser,
    default: str | None = None,
    choices: Sequence[str] | None = None,
) -> None:
    parser.add_argument(
        "--algorithm",
        default=default,
        metavar="NAME",
        choices=list(choices) if choices is not None else None,
        help=(
            "coloring algorithm from the zoo registry "
            "(docs/ALGORITHMS.md); registry-backed experiments also "
            "accept 'all' or a comma-separated head-to-head subset"
        ),
    )


def _add_physics_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=4.0, help="path-loss exponent")
    parser.add_argument("--beta", type=float, default=2.0, help="SINR threshold")
    parser.add_argument("--rho", type=float, default=2.0, help="Markov slack")


def _add_deployment_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=100, help="number of nodes")
    parser.add_argument("--extent", type=float, default=6.0, help="square side (R_T units)")
    parser.add_argument("--seed", type=int, default=0, help="root seed")
    parser.add_argument(
        "--family",
        choices=["uniform", "clustered", "grid"],
        default="uniform",
        help="deployment family",
    )


def _params(args: argparse.Namespace) -> PhysicalParams:
    return PhysicalParams(alpha=args.alpha, beta=args.beta, rho=args.rho).with_r_t(1.0)


def _deployment(args: argparse.Namespace) -> Deployment:
    if args.family == "uniform":
        return uniform_deployment(args.n, args.extent, seed=args.seed)
    if args.family == "clustered":
        per = max(1, args.n // 8)
        return clustered_deployment(
            clusters=8, points_per_cluster=per, extent=args.extent,
            cluster_radius=args.extent / 10.0, seed=args.seed,
        )
    side = max(2, int(args.n**0.5))
    return grid_deployment(side=side, spacing=args.extent / side)


def _cmd_physics(args: argparse.Namespace) -> int:
    params = _params(args)
    rows = [
        {"quantity": "R_T (transmission range)", "value": params.r_t},
        {"quantity": "R_max (decoding range)", "value": params.r_max},
        {"quantity": "R_I (interference range)", "value": params.r_i},
        {"quantity": "d (Theorem 3 MAC distance)", "value": params.mac_distance},
        {"quantity": "Lemma 3 bound P/(2 rho beta R_T^a)",
         "value": params.outside_interference_bound},
    ]
    print(format_table(rows, title=params.describe()))
    return 0


#: The ``--faults`` degradation table's quantities, in print order
#: (the fault counters follow, sorted).
_DEGRADATION_KEYS = (
    "completed", "proper", "decided", "n", "independence_violations", "clean",
)


def _cmd_color(args: argparse.Namespace) -> int:
    """``repro color``: one run of any zoo entry, judged by ``outcome.clean``.

    MW calls :func:`~repro.coloring.runner.run_mw_coloring` itself (the
    only path that takes ``--resolver sparse``) and prints its own
    summary row; every other entry runs through
    :func:`~repro.algorithms.run_coloring_algorithm` and prints the
    arena's row.  Under ``--faults`` any entry also prints the
    degradation table, read from the same :class:`ColoringRunResult`.
    """
    params = _params(args)
    deployment = _deployment(args)
    try:
        plan = _faults_from(args)
    except ConfigurationError as failure:
        print(f"cannot load fault plan: {failure}", file=sys.stderr)
        return 2
    telemetry = _telemetry_from(args, "color")
    if args.algorithm != "mw" and args.resolver != "dense":
        raise ConfigurationError(
            f"--resolver {args.resolver} only applies to --algorithm mw, "
            f"not {args.algorithm!r}"
        )
    try:
        if args.algorithm == "mw":
            result = run_mw_coloring(
                deployment, params, seed=args.seed, channel=args.channel,
                resolver=args.resolver, telemetry=telemetry, faults=plan,
            )
            outcome = mw_run_result(result)
            row = result.summary()
            row["audit_violations"] = len(result.audit_violations)
            title = "MW coloring run"
        else:
            outcome = run_coloring_algorithm(
                args.algorithm, deployment, params, seed=args.seed,
                channel=args.channel, telemetry=telemetry, faults=plan,
            )
            row = outcome.row()
            title = f"{args.algorithm} coloring run"
    except ConfigurationError:
        raise
    except ReproError as failure:
        # the CLI boundary contract (ERR003): only ConfigurationError
        # escapes a handler — domain failures triggered by CLI inputs
        # are configuration problems by the time they reach a user
        raise ConfigurationError(f"color run failed: {failure}") from failure
    print(format_table(
        [row],
        title=f"{title} (channel={args.channel}, resolver={args.resolver})",
    ))
    if plan is not None:
        judged = outcome.row()
        keys = [*_DEGRADATION_KEYS, *(k for k in judged if k.startswith("fault_"))]
        rows = [{"quantity": key, "value": judged[key]} for key in keys]
        print(format_table(rows, title=f"degradation under {args.faults}"))
    if telemetry is not None:
        print(f"telemetry written to {telemetry.out}"
              f" (summarise with: python -m repro report {telemetry.out})")
    return 0 if outcome.clean else 1


def _cmd_mac(args: argparse.Namespace) -> int:
    params = _params(args)
    deployment = _deployment(args)
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    rows = []
    for k in (1.0, 2.0, params.mac_distance + 1):
        try:
            coloring = greedy_coloring(power_graph(graph, k))
            schedule = TDMASchedule(coloring)
            report = verify_tdma_broadcast(graph, schedule, params)
        except ReproError as failure:
            # ERR003 boundary contract: translate domain failures on
            # CLI-provided deployments into ConfigurationError
            raise ConfigurationError(
                f"TDMA audit failed at distance-{k:g}: {failure}"
            ) from failure
        rows.append(
            {
                "coloring": f"distance-{k:g}",
                "frame": schedule.frame_length,
                "served": report.delivered,
                "pairs": report.expected,
                "success": report.success_rate,
                "interference_free": report.interference_free,
            }
        )
    print(format_table(rows, title=f"TDMA audit (n={graph.n}, Delta={graph.max_degree})"))
    return 0 if rows[-1]["interference_free"] else 1


_SRS_WORKLOADS = {
    "flooding": lambda n: [FloodingBroadcast(source=0) for _ in range(n)],
    "bfs": lambda n: [BFSTreeAlgorithm(root=0) for _ in range(n)],
    "leader": lambda n: [MaxIdLeaderElection(rounds=25) for _ in range(n)],
}


def _cmd_srs(args: argparse.Namespace) -> int:
    params = _params(args)
    deployment = _deployment(args)
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    if not graph.is_connected():
        print("deployment is disconnected; pick another seed", file=sys.stderr)
        return 2
    try:
        coloring = greedy_coloring(power_graph(graph, params.mac_distance + 1))
        schedule = TDMASchedule(coloring)
    except ReproError as failure:
        # ERR003 boundary contract: only ConfigurationError escapes
        raise ConfigurationError(
            f"cannot build the SRS schedule: {failure}"
        ) from failure
    simulated = _SRS_WORKLOADS[args.algorithm](graph.n)
    try:
        plan = _faults_from(args)
    except ConfigurationError as failure:
        print(f"cannot load fault plan: {failure}", file=sys.stderr)
        return 2
    telemetry = _telemetry_from(args, "srs")
    try:
        report = simulate_uniform_algorithm(
            graph, simulated, schedule, params, max_rounds=args.max_rounds,
            telemetry=telemetry, faults=plan, fault_seed=args.seed,
            resolver=args.resolver,
        )
        native = _SRS_WORKLOADS[args.algorithm](graph.n)
        native_report = run_uniform_rounds(
            graph, native, max_rounds=args.max_rounds
        )
    except ConfigurationError:
        raise
    except ReproError as failure:
        # ERR003 boundary contract: only ConfigurationError escapes
        raise ConfigurationError(f"SRS simulation failed: {failure}") from failure
    row = {
        "algorithm": args.algorithm,
        "native_rounds": native_report.rounds,
        "srs_rounds": report.rounds,
        "frame": report.frame_length,
        "slots": report.slots,
        "lost": report.lost_deliveries,
        "halted": report.halted,
    }
    print(format_table(
        [row],
        title=f"Corollary 1 single-round simulation (resolver={args.resolver})",
    ))
    if report.fault_events is not None:
        rows = [
            {"fault": key, "count": value}
            for key, value in sorted(report.fault_events.items())
        ]
        print(format_table(rows, title=f"fault events under {args.faults}"))
    if telemetry is not None:
        print(f"telemetry written to {telemetry.out}"
              f" (summarise with: python -m repro report {telemetry.out})")
    return 0 if report.exact and report.halted else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    """Run an experiment as a sharded parallel sweep.

    Runs the sweep sharded over a process pool, merges the shards back in
    canonical order (row-for-row identical to the serial run), applies
    the experiment's ``check()`` and optionally writes one merged
    telemetry artifact.  Exit codes: 0 ok, 1 check failure or shard
    failures, 130 interrupted (resumable via ``--resume``).
    """
    from .experiments import REGISTRY
    from .orchestration import (
        RunStore,
        merged_rows,
        run_sharded,
        write_merged_artifact,
    )

    module = REGISTRY[args.id]
    store = RunStore(args.store) if args.store else None
    try:
        plan = _faults_from(args)
    except ConfigurationError as failure:
        print(f"cannot load fault plan: {failure}", file=sys.stderr)
        return 2
    result = run_sharded(
        args.id,
        jobs=args.jobs,
        shard_size=args.shard_size,
        unit_kwargs={"seeds": range(args.seeds)},
        store=store,
        resume=args.resume,
        timeout_s=args.timeout,
        retries=args.retries,
        progress=lambda message: print(message, file=sys.stderr),
        install_sigint=True,
        faults=plan,
        algorithm=args.algorithm,
    )
    if result.interrupted:
        print("sweep interrupted; finish it with --resume", file=sys.stderr)
        return 130
    if result.failures:
        for failure in result.failures:
            print(
                f"shard {failure['shard']} failed after "
                f"{failure['attempts']} attempt(s): {failure['error']}",
                file=sys.stderr,
            )
        return 1

    rows = merged_rows(result)
    print(format_table(rows, columns=module.COLUMNS, title=module.TITLE))
    summary = result.summary()
    print(
        f"{summary['shards']} shards over {summary['jobs']} jobs in "
        f"{summary['wall_s']:.2f}s "
        f"({summary['shards_resumed']} resumed, "
        f"{summary['shard_wall_s']:.2f}s of shard work)"
    )
    exit_code = 0
    if not args.no_check:
        try:
            module.check(rows)
            print("check passed")
        except AssertionError as failure:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
            exit_code = 1
    out = args.telemetry_out
    if out is not None:
        meta = {
            "command": "sweep",
            **{
                key: value
                for key, value in vars(args).items()
                if key not in ("func", "telemetry_out") and not callable(value)
            },
        }
        write_merged_artifact(out, result, store=store, meta=meta)
        print(f"telemetry written to {out}"
              f" (summarise with: python -m repro report {out})")
    return exit_code


def _cmd_experiment(args: argparse.Namespace) -> int:
    from time import perf_counter

    from .experiments import REGISTRY, run_units
    from .orchestration import plan_sweep

    module = REGISTRY[args.id]
    start = perf_counter()  # repro: noqa[DET001] wall-clock provenance only; rows are unaffected
    plan = plan_sweep(
        args.id,
        unit_kwargs={"seeds": range(args.seeds)},
        algorithm=args.algorithm,
    )
    rows = run_units(plan.module, plan.units)
    elapsed = perf_counter() - start  # repro: noqa[DET001] wall-clock provenance only; rows are unaffected
    print(format_table(rows, columns=module.COLUMNS, title=module.TITLE))
    check_passed = None
    exit_code = 0
    if not args.no_check:
        try:
            module.check(rows)
            check_passed = True
            print("check passed")
        except AssertionError as failure:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
            check_passed = False
            exit_code = 1
    telemetry = _telemetry_from(args, "experiment")
    if telemetry is not None:
        telemetry.export(
            "experiment",
            rows=rows,
            summary={
                "experiment": args.id,
                "title": module.TITLE,
                "rows": len(rows),
                "wall_s": elapsed,
                "check_passed": check_passed,
            },
        )
        print(f"telemetry written to {telemetry.out}"
              f" (summarise with: python -m repro report {telemetry.out})")
    return exit_code


def _cmd_serve(args: argparse.Namespace) -> int:
    """Boot the HTTP job service and serve until Ctrl-C."""
    from .service import ServiceApp, make_server

    app = ServiceApp(
        args.store,
        workers=args.workers,
        job_procs=args.jobs,
        queue_size=args.queue_size,
        run_check=not args.no_check,
        verbose=args.verbose,
    )
    server = make_server(app, args.host, args.port)
    host, port = server.server_address[:2]
    print(
        f"repro service listening on http://{host}:{port} "
        f"(store: {args.store}) — Ctrl-C to stop",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down (in-flight jobs drain)", file=sys.stderr)
    finally:
        server.server_close()
        app.close()
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .errors import ConfigurationError

    try:
        run = read_run(args.path)
    except (OSError, ConfigurationError) as failure:
        print(f"cannot read telemetry artifact: {failure}", file=sys.stderr)
        return 2

    print(f"telemetry artifact: {run.path}")
    print(f"schema: {run.schema}   command: {run.command}")
    if run.meta:
        interesting = {
            k: v for k, v in run.meta.items() if k != "command" and v is not None
        }
        if interesting:
            print("meta: " + ", ".join(f"{k}={v}" for k, v in sorted(interesting.items())))
    print()

    if run.summary:
        rows = [
            {"quantity": key, "value": value}
            for key, value in run.summary.items()
            if not isinstance(value, (list, dict))
        ]
        print(format_table(rows, title="run summary"))
        print()

    profile = run.profile_summary()
    if profile["slots"]:
        rows = [
            {
                "section": section,
                "seconds": profile[f"{section}_s"],
                "share": profile[f"{section}_share"],
            }
            for section in ("node", "resolve", "observer")
        ]
        print(format_table(rows, title=(
            f"slot-time attribution ({profile['slots']} slots, "
            f"{profile['total_s']:.3f} s, {profile['mean_slot_us']:.1f} us/slot)"
        )))
        print()

    if run.metrics:
        rows = []
        for name, snap in sorted(run.metrics.items()):
            if snap.get("kind") == "histogram":
                for stat in ("count", "mean", "min", "max"):
                    rows.append(
                        {"metric": f"{name}.{stat}", "value": snap.get(stat)}
                    )
            else:
                rows.append({"metric": name, "value": snap.get("value")})
        delivery = run.delivery_rate
        if delivery is not None:
            rows.append({"metric": "run.delivery_rate", "value": delivery})
        print(format_table(rows, title="metrics"))
        print()

    if run.rows:
        print(format_table(run.rows, title=f"exported rows ({len(run.rows)})"))
        print()

    stats = run.protocol_stats()
    if stats is not None:
        print(format_table(stats.rows(), title="protocol statistics (reset/wait)"))
    elif run.trace is not None and len(run.trace) > 0:
        print(f"trace: {len(run.trace)} events (no summary context for protocol stats)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.cli import run_lint

    return run_lint(args)


def _cmd_estimate(args: argparse.Namespace) -> int:
    params = _params(args)
    deployment = _deployment(args)
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    estimate = estimate_degrees(deployment, params, seed=args.seed)
    row = {
        "true_delta": graph.max_degree,
        "max_estimate": estimate.max_estimate,
        "mean_heard": float(estimate.heard_counts.mean()),
        "mean_true": float(graph.degrees.mean()),
        "probe_slots": estimate.slots_used,
    }
    print(format_table([row], title="degree estimation (unknown-Delta probe)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Distributed node coloring in the SINR model (ICDCS 2010)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    physics = sub.add_parser("physics", help="derived geometry for given constants")
    _add_physics_args(physics)
    physics.set_defaults(func=_cmd_physics)

    color = sub.add_parser("color", help="run the MW coloring")
    _add_physics_args(color)
    _add_deployment_args(color)
    color.add_argument(
        "--channel", choices=["sinr", "graph", "collision_free"], default="sinr"
    )
    _add_resolver_args(color)
    _add_algorithm_args(color, default="mw", choices=algorithm_names())
    _add_faults_args(color)
    _add_telemetry_args(color)
    color.set_defaults(func=_cmd_color)

    mac = sub.add_parser("mac", help="audit TDMA schedules (Theorem 3)")
    _add_physics_args(mac)
    _add_deployment_args(mac)
    mac.set_defaults(func=_cmd_mac)

    srs = sub.add_parser("srs", help="simulate a message-passing algorithm")
    _add_physics_args(srs)
    _add_deployment_args(srs)
    srs.add_argument(
        "--algorithm", choices=sorted(_SRS_WORKLOADS), default="flooding"
    )
    srs.add_argument("--max-rounds", type=int, default=120)
    _add_resolver_args(srs)
    _add_faults_args(srs)
    _add_telemetry_args(srs)
    srs.set_defaults(func=_cmd_srs)

    estimate = sub.add_parser("estimate", help="probe degrees (unknown Delta)")
    _add_physics_args(estimate)
    _add_deployment_args(estimate)
    estimate.set_defaults(func=_cmd_estimate)

    from .experiments import REGISTRY

    experiment = sub.add_parser(
        "experiment", help="run a registered experiment (EXP-1 .. EXP-14)"
    )
    experiment.add_argument("id", choices=sorted(REGISTRY))
    experiment.add_argument(
        "--seeds", type=int, default=2, help="number of seeds (0..seeds-1)"
    )
    experiment.add_argument(
        "--no-check", action="store_true", help="print rows without asserting"
    )
    _add_algorithm_args(experiment)
    _add_telemetry_args(experiment)
    experiment.set_defaults(func=_cmd_experiment)

    sweep_cmd = sub.add_parser(
        "sweep",
        help="run an experiment as a sharded, resumable parallel sweep",
        description=(
            "Shard the experiment's grid x seeds sweep over a process pool. "
            "Rows merge back in canonical order — the table is row-for-row "
            "identical to the serial run. With --store, completed shards "
            "persist on disk and --resume skips them after an interrupt; "
            "Ctrl-C drains in-flight shards before exiting (exit code 130)."
        ),
    )
    sweep_cmd.add_argument("id", choices=sorted(REGISTRY))
    sweep_cmd.add_argument(
        "--seeds", type=int, default=2, help="number of seeds (0..seeds-1)"
    )
    sweep_cmd.add_argument(
        "--no-check", action="store_true", help="print rows without asserting"
    )
    sweep_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the sharded parallel path",
    )
    sweep_cmd.add_argument(
        "--store", metavar="DIR", default=None,
        help="run-store directory; completed shards persist here",
    )
    sweep_cmd.add_argument(
        "--resume", action="store_true",
        help="skip shards already persisted in --store",
    )
    sweep_cmd.add_argument(
        "--shard-size", type=int, default=1, metavar="UNITS",
        help="units per shard (1 = finest resume granularity)",
    )
    sweep_cmd.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-shard wall-clock budget (timed-out shards retry)",
    )
    sweep_cmd.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="extra attempts per failed shard before recording the failure",
    )
    _add_algorithm_args(sweep_cmd)
    _add_faults_args(sweep_cmd)
    _add_telemetry_args(sweep_cmd)
    sweep_cmd.set_defaults(func=_cmd_sweep)

    serve_cmd = sub.add_parser(
        "serve",
        help="serve the coloring job API over HTTP (docs/SERVICE.md)",
        description=(
            "Long-running REST service over the orchestration layer: "
            "POST /v1/jobs submits an experiment sweep (validated, keyed "
            "by config hash), the content-addressed run store answers "
            "repeat submissions without re-executing, and "
            "GET /v1/jobs/<id>/events streams shard telemetry as NDJSON. "
            "Stdlib HTTP only — no framework, no new dependencies."
        ),
    )
    serve_cmd.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve_cmd.add_argument(
        "--port", type=int, default=8423, metavar="PORT",
        help="bind port (0 picks an ephemeral port)",
    )
    serve_cmd.add_argument(
        "--store", required=True, metavar="DIR",
        help="run-store directory — the service's result cache",
    )
    serve_cmd.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent jobs (worker threads driving the executor)",
    )
    serve_cmd.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes per job (run_sharded's pool size)",
    )
    serve_cmd.add_argument(
        "--queue-size", type=int, default=64, metavar="N",
        help="max queued jobs before submissions answer 503",
    )
    serve_cmd.add_argument(
        "--no-check", action="store_true",
        help="skip the experiment check() verdict on finished jobs",
    )
    serve_cmd.add_argument(
        "--verbose", action="store_true",
        help="log one line per HTTP request to stderr",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    report = sub.add_parser(
        "report", help="summarise a telemetry JSONL artifact offline"
    )
    report.add_argument("path", help="artifact written via --telemetry-out")
    report.set_defaults(func=_cmd_report)

    from .devtools.cli import add_lint_arguments

    lint = sub.add_parser(
        "lint",
        help="run the invariant linter (docs/STATIC_ANALYSIS.md)",
        description=(
            "AST-based invariant linter: RNG discipline, determinism "
            "hazards, experiment contract, artifact schemas, error "
            "discipline.  Exit 0 clean, 1 findings, 2 usage error."
        ),
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    ``ConfigurationError`` is the one exception command handlers may
    let escape (the ERR003 boundary contract, enforced by
    ``repro lint --deep``); it surfaces as a one-line message and exit
    code 2 instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as failure:
        print(f"repro: {failure}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
