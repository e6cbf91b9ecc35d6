"""The five workloads of the end-to-end benchmark and how one is measured.

Every workload drives a real entry point of the program — ``repro.cli.main``,
``repro.orchestration.run_sharded`` or HTTP against a ``ServiceApp`` — with
inputs generated from the workload seed, and checks every op's output.  Work
comes in *rounds* of a fixed number of ops.  :func:`measure` runs a number
of rounds fixed by the workload and the requested seconds alone, so every
commit measures the same inputs, and turns them into the end-to-end
metrics, or, when traced, replays the same rounds under a
:class:`~spans.Tracer` and turns the spans into the per-layer metrics.

Load comes from the calling thread alone: ops run one after another (a closed
loop), the service sees one connection at a time, and the program gets at
most two worker processes.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from spans import Tracer

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE / "spec.json").read_text())
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
DIGESTS_PATH = HERE / "digests.json"

#: End-to-end metrics (untraced run) and their units.
E2E_UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
#: Per-layer metrics (traced run) and their units.  Times and counts are
#: per op, where an op is what ``attempted`` counts for the workload.
LAYER_UNITS = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}

#: Latency percentiles reported as ``op_p<q>_ms``.  A percentile with fewer
#: than :data:`MIN_BEYOND` passing ops beyond it in the run falls back to
#: the next lower one here; the median is always reported.  There is no
#: p99: pooled over a run it read the host's stalls, not the program (its
#: spread over ten runs of the same code was a quarter of its median).
PERCENTILES = (90, 50)
MIN_BEYOND = 10


def digest(value: Any) -> str:
    """Short content hash of a JSON-serialisable value or a string."""
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@dataclass
class OpResult:
    """One op: its latency, whether every check passed, its output digest."""

    latency_s: float
    ok: bool
    digest: str
    info: dict = field(default_factory=dict)


@dataclass
class RoundResult:
    """One round of ops; ``wall_s`` covers only the user-visible work."""

    wall_s: float
    ops: list[OpResult]
    info: dict = field(default_factory=dict)
    #: :func:`host_probe` seconds around the round (mean of before and after).
    probe_s: float = 0.0


class Workload:
    """A named op generator over one entry point of the program."""

    name = ""
    #: Seconds one round takes at the reference host speed: a run of
    #: ``seconds`` measures ``seconds / round_s`` rounds, whatever the
    #: speed of the commit under test.
    round_s = 1.0

    def __init__(
        self, seed: int, workdir: pathlib.Path, tracer: Tracer | None = None
    ) -> None:
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer

    def mark(self, op: int) -> None:
        """Tag the spans recorded from now on with op number ``op``."""
        if self.tracer is not None:
            self.tracer.op = op

    def setup(self) -> None:
        """Everything a user pays before the first op: imports, boot."""

    def run_round(self, index: int) -> RoundResult:
        raise NotImplementedError

    def close(self) -> None:
        """Stop every thread and process the workload started."""


# -- repro color ---------------------------------------------------------------


def _table_row(text: str) -> dict[str, str]:
    """The first data row of a ``format_table`` printout, by column name.

    The printout is a title, a header, a rule and the rows; anything
    shorter yields an empty row.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if len(lines) < 4:
        return {}
    return dict(zip(lines[1].split(), lines[3].split()))


class ColorWorkload(Workload):
    """One ``repro color`` command per round, seeds ``s, s+1, ...``."""

    def argv(self, index: int) -> list[str]:
        raise NotImplementedError

    def setup(self) -> None:
        from repro import cli

        cli.build_parser()  # imports the registries the command needs
        self.cli = cli

    def run_round(self, index: int) -> RoundResult:
        self.mark(index)
        out = io.StringIO()
        began = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.cli.main(self.argv(index))
        except Exception as failure:  # an op failure is counted, never a crash
            latency = time.perf_counter() - began
            op = OpResult(latency, False, f"error:{type(failure).__name__}")
            return RoundResult(latency, [op])
        latency = time.perf_counter() - began
        text = out.getvalue()
        info = {}
        if code == 0:
            slots = _table_row(text).get("slots")
            info = {"slots": int(slots)} if slots is not None else {}
        op = OpResult(latency, code == 0, digest(text), info)
        return RoundResult(latency, [op])


class ColorMwDense(ColorWorkload):
    """The paper's MW coloring under SINR, dense resolver, paper density.

    Channel resolve and node callbacks dominate, so engine and
    event-dispatch changes show here.
    """

    name = "color-mw-dense"
    round_s = 1.25

    def __init__(self, *args: Any, n: int = 100, extent: float = 6.0, **kw: Any):
        super().__init__(*args, **kw)
        self.n, self.extent = n, extent

    def argv(self, index: int) -> list[str]:
        return [
            "color", "--n", str(self.n), "--extent", str(self.extent),
            "--seed", str(self.seed + index),
        ]


class ColorGreedyLarge(ColorWorkload):
    """Large n with no channel and no simulation.

    The unit-disk graph and the static Theorem-1 checks dominate, so engine
    and simulation changes must show no change here.
    """

    name = "color-greedy-large"
    round_s = 2.45

    def __init__(self, *args: Any, n: int = 10000, extent: float = 60.0, **kw: Any):
        super().__init__(*args, **kw)
        self.n, self.extent = n, extent

    def argv(self, index: int) -> list[str]:
        return [
            "color", "--algorithm", "greedy", "--n", str(self.n),
            "--extent", str(self.extent), "--seed", str(self.seed + index),
        ]


# -- repro sweep -----------------------------------------------------------------


def _tree_bytes(root: pathlib.Path) -> int:
    return sum(path.stat().st_size for path in root.rglob("*") if path.is_file())


class SweepArena(Workload):
    """One sharded EXP-14 sweep per round, as ``repro sweep exp14`` runs it.

    The whole algorithm zoo in one-unit shards over two worker processes,
    so process pool, store writes and aggregation are on the path.  The op
    is the whole sweep, what a user of ``repro sweep`` waits for:
    ``run_sharded``, the canonical merge and the experiment's ``check``.
    """

    name = "sweep-arena"
    round_s = 2.35
    #: Worker processes, as ``repro sweep --jobs 2`` on a 2-core host.
    jobs = 2

    def __init__(self, *args: Any, seeds: int = 10, **kw: Any):
        super().__init__(*args, **kw)
        self.seeds = seeds

    def setup(self) -> None:
        import repro.orchestration as orchestration
        from repro.experiments import REGISTRY

        self.orchestration = orchestration
        self.arena = REGISTRY["exp14"]

    def run_round(self, index: int) -> RoundResult:
        self.mark(index)
        first = self.seed + index * self.seeds
        store = self.workdir / f"sweep-{index}"
        began = time.perf_counter()
        try:
            result = self.orchestration.run_sharded(
                "exp14", jobs=self.jobs,
                unit_kwargs={"seeds": range(first, first + self.seeds)},
                store=str(store),
            )
            rows = self.orchestration.merged_rows(result)
            self.arena.check(rows)
        except Exception as failure:  # an op failure is counted, never a crash
            wall = time.perf_counter() - began
            shutil.rmtree(store, ignore_errors=True)
            op = OpResult(wall, False, f"error:{type(failure).__name__}")
            return RoundResult(wall, [op])
        wall = time.perf_counter() - began
        info = {
            "unit_wall_s": sum(record["wall_s"] for record in result.records.values()),
            "store_bytes": _tree_bytes(store),
            "jobs": self.jobs,
        }
        shutil.rmtree(store, ignore_errors=True)
        op = OpResult(wall, not result.failures, digest(rows))
        return RoundResult(wall, [op], info)


# -- repro serve -------------------------------------------------------------------


class _Client:
    """HTTP calls over one connection at a time, opened per request.

    A connection per request is what the repository's own client
    (``examples/service_client.py``, via ``urllib``) does.  A reused
    keep-alive connection stalls about 40 ms per request, because the
    server writes headers and body in two sends (Nagle's algorithm
    against delayed ACKs); README.md records that finding.
    """

    def __init__(self, host: str, port: int) -> None:
        self.host, self.port = host, port

    def call(self, method: str, path: str, payload: Any = None) -> tuple[int, dict, float]:
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {"Connection": "close"}
        if body is not None:
            headers["Content-Type"] = "application/json"
        began = time.perf_counter()
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request(method, path, body=body, headers=headers)
            reply = conn.getresponse()
            data = reply.read()
        finally:
            conn.close()
        return reply.status, json.loads(data), time.perf_counter() - began


def _job_digest(body: dict) -> str:
    job = body.get("job", {})
    return digest(
        [body.get("cached")]
        + [job.get(key) for key in ("job_id", "state", "rows_count", "check_passed")]
    )


class ServiceWorkload(Workload):
    """A ``ServiceApp`` on loopback, booted and warmed by one cold request."""

    #: Seconds the client sleeps between status polls of a queued job.
    poll_s = 0.002
    #: Seconds a cold job may take before its op counts as failed.
    job_timeout_s = 60.0

    def __init__(self, *args: Any, round_size: int = 25, **kw: Any):
        super().__init__(*args, **kw)
        self.round_size = round_size

    def warm_spec(self) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        from repro.service import ServiceApp, make_server

        store = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        self.app = ServiceApp(store, workers=2, job_procs=1)
        self.server = make_server(self.app, "127.0.0.1", 0)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = _Client(host, port)
        self.cold(self.warm_spec())

    def cold(self, spec: dict) -> OpResult:
        """POST a spec, then poll its job until it settles."""
        began = time.perf_counter()
        try:
            status, body, request_s = self.client.call("POST", "/v1/jobs", spec)
            hit = 1.0 if body.get("cached") is True else 0.0
            job = body.get("job", {})
            deadline = began + self.job_timeout_s
            polls = 0
            while job.get("state") in ("queued", "running") and time.perf_counter() < deadline:
                time.sleep(self.poll_s)
                status, body, seconds = self.client.call("GET", f"/v1/jobs/{job['job_id']}")
                job = body.get("job", {})
                request_s += seconds
                polls += 1
        except (OSError, http.client.HTTPException, ValueError) as failure:
            latency = time.perf_counter() - began
            return OpResult(latency, False, f"error:{type(failure).__name__}")
        latency = time.perf_counter() - began
        ok = (
            200 <= status < 300
            and job.get("state") == "done"
            and job.get("check_passed") is True
        )
        info = {"polls": polls, "request_s": request_s, "hit": hit}
        return OpResult(latency, ok, _job_digest(body), info)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()
        self.app.close()


class ServiceCold(ServiceWorkload):
    """Distinct specs, so every request misses the cache and runs.

    Parse, hash, queue, execute and store write are all on the path.
    """

    name = "service-cold"
    round_s = 0.93

    def spec(self, op: int) -> dict:
        # (n, extent) repeats only after 13 * 997 consecutive keys, far
        # more ops than a run makes, so no timed op is a cache hit
        key = self.seed * 1000 + op
        return {
            "experiment": "exp14",
            "seeds": 1,
            "params": {
                "algorithm": "greedy",
                "n": 30 + key % 13,
                "extent": round(4.0 + (key % 997) / 1000, 3),
            },
        }

    def warm_spec(self) -> dict:
        # n=29 lies outside every timed spec's range, so no op is a hit
        return {"experiment": "exp14", "seeds": 1, "params": {"algorithm": "greedy", "n": 29}}

    def run_round(self, index: int) -> RoundResult:
        ops = []
        began = time.perf_counter()
        for i in range(self.round_size):
            self.mark(index * self.round_size + i)
            ops.append(self.cold(self.spec(index * self.round_size + i)))
        return RoundResult(time.perf_counter() - began, ops)


class ServiceCached(ServiceWorkload):
    """One spec re-posted after it completed.

    Parse, hash and cache hit with no execution: the read path of the same
    layers, so a gain for one path that costs the other shows up here.
    """

    name = "service-cached"
    round_s = 0.42

    def __init__(self, *args: Any, round_size: int = 500, **kw: Any):
        super().__init__(*args, round_size=round_size, **kw)

    def warm_spec(self) -> dict:
        return {
            "experiment": "exp14",
            "seeds": 1,
            "params": {"algorithm": "greedy", "n": 30 + self.seed % 13},
        }

    def run_round(self, index: int) -> RoundResult:
        spec = self.warm_spec()
        ops = []
        began = time.perf_counter()
        for i in range(self.round_size):
            self.mark(index * self.round_size + i)
            start = time.perf_counter()
            try:
                status, body, request_s = self.client.call("POST", "/v1/jobs", spec)
            except (OSError, http.client.HTTPException, ValueError) as failure:
                latency = time.perf_counter() - start
                ops.append(OpResult(latency, False, f"error:{type(failure).__name__}"))
                continue
            latency = time.perf_counter() - start
            ok = (
                status == 200
                and body.get("cached") is True
                and body.get("job", {}).get("state") == "done"
            )
            info = {"request_s": request_s, "hit": 1.0 if body.get("cached") is True else 0.0}
            ops.append(OpResult(latency, ok, _job_digest(body), info))
        return RoundResult(time.perf_counter() - began, ops)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (ColorMwDense, ColorGreedyLarge, SweepArena, ServiceCold, ServiceCached)
}


# -- measurement -----------------------------------------------------------------


def host_probe() -> float:
    """Seconds one fixed pure-Python loop takes: the host's current speed.

    The host this benchmark was calibrated on runs Python code at speeds
    that drift by up to 2x over seconds to minutes, with nothing else of
    ours running.  The probe runs between rounds, while the program is
    idle, so the program's own speed does not move it; a change that left
    CPU-burning threads running between rounds would, and ``run.py
    compare`` prints both sides' probes for that reason.
    """
    began = time.perf_counter()
    total, table = 0, {}
    for i in range(50_000):
        total += i * i % 7
        table[i & 255] = total
    return time.perf_counter() - began


def import_probe() -> float:
    """Seconds a fresh interpreter takes to import ``spec.json``'s ``import_probe``.

    Those are numpy and standard-library packages, none of the program:
    what set-up mostly does, on code no commit under test changes.  On the
    calibration host set-up time drifted by a quarter within minutes while
    :func:`host_probe` stayed put, sometimes along with numpy's import and
    sometimes along with the rest, so this reference holds both.
    """
    code = (
        "import time\n"
        "began = time.perf_counter()\n"
        f"import {SPEC['import_probe']}\n"
        "print(time.perf_counter() - began)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60,
    )
    return float(result.stdout)


def reference_setup_s(setup_s: float, import_s: float) -> float:
    """A set-up time with its import probe's time replaced by the reference's.

    ``import_s`` is :func:`import_probe` taken right after that set-up.
    A change to the program moves the result exactly as much as it moves
    the set-up; subtracting held set-up drift on the calibration host
    tighter than dividing by the probe, which over-corrected.
    """
    return setup_s - import_s + SPEC["import_reference_s"]


def rounds_for(name: str, seconds: float) -> int:
    """Rounds a run of ``seconds`` measures: at least one."""
    return max(1, round(seconds / WORKLOADS[name].round_s))


def run_rounds(workload: Workload, rounds: int) -> list[RoundResult]:
    """Run ``rounds`` rounds, timing the host probe before and after each."""
    results: list[RoundResult] = []
    before = host_probe()
    for index in range(rounds):
        result = workload.run_round(index)
        after = host_probe()
        result.probe_s = (before + after) / 2
        results.append(result)
        before = after
    return results


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0-100), interpolating between order statistics."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ops(rounds: list[RoundResult]) -> list[OpResult]:
    return [op for r in rounds for op in r.ops]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def speed_factor(rounds: list[RoundResult]) -> float:
    """Reference probe time over this run's median probe time.

    Multiplying a run's times by it reports them at the reference host
    speed of ``spec.json``: below 1 when the host ran slow.
    """
    return SPEC["probe_reference_s"] / statistics.median(r.probe_s for r in rounds)


def reported_percentile(q: int, samples: int) -> int:
    """The percentile ``op_p<q>_ms`` reports for a run of ``samples`` ops.

    ``q`` itself when at least :data:`MIN_BEYOND` ops lie beyond it, else
    the next lower of :data:`PERCENTILES` that has them, else the median.
    """
    for candidate in PERCENTILES:
        if candidate <= q and samples * (100 - candidate) / 100 >= MIN_BEYOND:
            return candidate
    return 50


def e2e_metrics(rounds: list[RoundResult], factor: float = 1.0) -> dict[str, float]:
    """The end-to-end metrics of one untraced run but ``setup_s``.

    Times are scaled by ``factor``.  Latency percentiles pool the ops of
    the whole run that passed their checks (see :func:`reported_percentile`);
    failures are counted separately.
    """
    latencies = [op.latency_s * 1e3 for op in _ops(rounds) if op.ok]
    wall = sum(r.wall_s for r in rounds)

    def latency(q: int) -> float:
        return factor * percentile(latencies, reported_percentile(q, len(latencies)))

    return {
        "wall_s": factor * wall,
        "op_p50_ms": latency(50),
        "op_p90_ms": latency(90),
        "ops_per_s": len(latencies) / wall / factor,
        "peak_rss_mb": _peak_rss_mb(),
    }


def layer_metrics(
    tracer: Tracer,
    traced: list[RoundResult],
    untraced: list[RoundResult],
) -> dict[str, float]:
    """The per-layer metrics of one traced run (see ``LAYER_UNITS``)."""
    ops = _ops(traced)
    per_op = 1.0 / max(1, len(ops))

    def info_sum(items: list, key: str) -> float:
        return float(sum(item.info.get(key, 0) for item in items))

    resolves = tracer.named("sinr.resolve")
    checks = tracer.named("invariants.static_check")
    sweep_s = tracer.total_s("orchestration.sweep")
    jobs = max((r.info.get("jobs", 1) for r in traced), default=1)
    untraced_ops = _ops(untraced)
    untraced_op_s = sum(op.latency_s for op in untraced_ops)

    # queue wait: from the server finishing the submit reply (end of the
    # POST's handle span) to the job starting to execute, per cold op
    submitted: dict[int, float] = {}
    for span in tracer.named("service.handle"):
        if span.op is not None and span.op not in submitted:
            submitted[span.op] = span.end
    waits = [
        span.start - submitted[span.op]
        for span in tracer.named("service.execute")
        if span.op in submitted
    ]

    return {
        "sinr.resolve_s": tracer.total_s("sinr.resolve") * per_op,
        "sinr.resolve_calls": len(resolves) * per_op,
        "sinr.mean_senders": (
            statistics.fmean(span.size for span in resolves) if resolves else 0.0
        ),
        "simulation.run_self_s": tracer.self_s("simulation.run") * per_op,
        "simulation.active_slots": tracer.counts["simulation.active_slots"] * per_op,
        "simulation.slots_per_s": (
            info_sum(untraced_ops, "slots") / untraced_op_s if untraced_op_s else 0.0
        ),
        "invariants.audit_s": tracer.total_s("invariants.audit") * per_op,
        "invariants.audit_calls": len(tracer.named("invariants.audit")) * per_op,
        "coloring.constants_s": tracer.total_s("coloring.constants") * per_op,
        "geometry.phi_empirical_s": tracer.total_s("geometry.phi_empirical") * per_op,
        "graphs.udg_s": tracer.total_s("graphs.udg") * per_op,
        "graphs.greedy_s": tracer.total_s("graphs.greedy") * per_op,
        "algorithms.run_s": tracer.total_s("algorithms.run") * per_op,
        "invariants.static_check_s": tracer.total_s("invariants.static_check") * per_op,
        "invariants.static_check_calls": len(checks) * per_op,
        "invariants.largest_class": float(max((s.size for s in checks), default=0)),
        "orchestration.plan_s": tracer.total_s("orchestration.plan") * per_op,
        "orchestration.sweep_s": sweep_s * per_op,
        "orchestration.store_write_s": tracer.total_s("orchestration.store_write") * per_op,
        "orchestration.aggregate_s": tracer.total_s("orchestration.aggregate") * per_op,
        "orchestration.parallel_efficiency": (
            info_sum(traced, "unit_wall_s") / (jobs * sweep_s) if sweep_s else 0.0
        ),
        "orchestration.store_bytes": info_sum(traced, "store_bytes") * per_op,
        "experiments.check_s": tracer.total_s("experiments.check") * per_op,
        "service.parse_s": tracer.total_s("service.parse") * per_op,
        "service.plan_s": tracer.total_s("service.plan") * per_op,
        "service.cache_lookup_s": tracer.total_s("service.cache_lookup") * per_op,
        "service.http_other_s": (
            info_sum(ops, "request_s") - tracer.total_s("service.handle")
        ) * per_op,
        "service.cache_hit_ratio": info_sum(ops, "hit") * per_op,
        "service.execute_s": tracer.total_s("service.execute") * per_op,
        "service.queue_wait_ms": statistics.fmean(waits) * 1e3 if waits else 0.0,
        "service.polls_per_request": info_sum(ops, "polls") * per_op,
        "trace.overhead_frac": (
            sum(r.wall_s for r in traced) / sum(r.wall_s for r in untraced) - 1.0
        ),
    }


def round_digests(rounds: list[RoundResult]) -> list[str]:
    return [digest("".join(op.digest for op in r.ops)) for r in rounds]


def committed_digests(name: str, seed: int) -> list[str]:
    """Round digests committed for ``name`` at the default seed ([] otherwise)."""
    if seed != SPEC["default_seed"] or not DIGESTS_PATH.exists():
        return []
    return json.loads(DIGESTS_PATH.read_text())["workloads"].get(name, [])


def setup_only(name: str, seed: int, workdir: pathlib.Path, started: float) -> dict:
    """Set one workload up and tear it down.

    Returns the set-up seconds as measured and the import probe taken
    right after them (see :func:`reference_setup_s`).
    """
    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    setup_s = time.perf_counter() - started
    try:
        return {"setup_s": setup_s, "import_probe_s": import_probe()}
    finally:
        workload.close()


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: pathlib.Path,
    started: float,
    sizes: dict | None = None,
) -> dict:
    """Set up and run one workload; returns its result record.

    ``started`` is when set-up began (``time.perf_counter()`` before the
    program was imported).  ``sizes`` overrides the workload's default
    input sizes; the committed digests apply only without it.

    Untraced, the record's metrics are the end-to-end metrics, with times at
    the reference host speed (``raw_metrics`` holds them as measured).
    Traced, the rounds of half the seconds run untraced, then a freshly
    set-up twin replays the same rounds under the tracer; every traced op
    must reproduce its untraced twin's digest, and the metrics are the
    per-layer metrics, as measured.
    """
    cls = WORKLOADS[name]
    sizes = sizes or {}
    workload = cls(seed, workdir, **sizes)
    workload.setup()
    setup_s = time.perf_counter() - started
    count = rounds_for(name, seconds / 2 if trace else seconds)
    try:
        import_s = import_probe()
        rounds = run_rounds(workload, count)
    finally:
        workload.close()

    ops = _ops(rounds)
    failed = sum(not op.ok for op in ops)
    attempted = len(ops)
    factor = speed_factor(rounds)
    raw: dict[str, float] = {}
    if trace:
        tracer = Tracer(SPEC["trace"])
        twin = cls(seed, workdir, tracer=tracer, **sizes)
        twin.setup()
        tracer.install()
        try:
            traced = run_rounds(twin, count)
        finally:
            tracer.uninstall()
            twin.close()
        traced_ops = _ops(traced)
        attempted += len(traced_ops)
        failed += sum(
            not (op.ok and op.digest == twin_op.digest)
            for op, twin_op in zip(traced_ops, ops)
        )
        metrics = layer_metrics(tracer, traced, rounds)
        units = LAYER_UNITS
    else:
        metrics = {
            "setup_s": reference_setup_s(setup_s, import_s),
            **e2e_metrics(rounds, factor),
        }
        raw = {"setup_s": setup_s, **e2e_metrics(rounds)}
        units = E2E_UNITS

    digests = round_digests(rounds)
    expected = committed_digests(name, seed) if not sizes else []
    for index, (got, want) in enumerate(zip(digests, expected)):
        if got != want:
            failed += sum(op.ok for op in rounds[index].ops)
    samples = sum(op.ok for op in ops)
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "import_probe_s": import_s,
        "probe_s": statistics.median(r.probe_s for r in rounds),
        "speed_factor": factor,
        "latency_samples": samples,
        "percentiles": {
            f"op_p{q}_ms": reported_percentile(q, samples) for q in (50, 90)
        },
        "round_digests": digests,
        "round_wall_s": [r.wall_s for r in rounds],
        "round_probe_s": [r.probe_s for r in rounds],
        # a metric computed but not declared in BENCHMARK.json is a KeyError
        "metrics": {
            key: {"value": value, "unit": units[key]} for key, value in metrics.items()
        },
        "raw_metrics": raw,
    }
