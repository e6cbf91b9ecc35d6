"""Job-service load test: requests/s and latency, cold vs cached vs mixed.

Boots a real :mod:`repro.service` instance (threading HTTP server, job
manager, process-pool executor) on an ephemeral loopback port and drives
it with plain ``urllib`` clients, measuring three workloads:

``cold``
    Every request submits a *new* spec (unique parameter point) and
    waits for the job to finish.  Latency is submit-to-done: HTTP
    parsing, validation, hashing, queueing, a process-pool execution and
    the store write all sit on this path, so this is the service's
    end-to-end floor, not its throughput ceiling.

``cached``
    The same spec submitted over and over after one warming run.  The
    answer comes straight from the content-addressed store (HTTP 200,
    zero executions), so this isolates the request path itself:
    transport + validation + hash + cache lookup.

``mixed``
    1-in-5 requests cold, the rest cached — the shape a reused service
    actually sees.

The committed ``BENCH_service.json`` is the baseline future PRs regress
against; ``docs/SERVICE.md`` quotes its numbers.

Run it from the repository root::

    PYTHONPATH=src python benchmarks/perf/bench_service.py          # full
    PYTHONPATH=src python benchmarks/perf/bench_service.py --quick  # CI

(The script falls back to inserting ``src/`` into ``sys.path`` itself,
so plain ``python benchmarks/perf/bench_service.py`` also works.)
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import threading
import time
import urllib.request

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent

try:  # allow running without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments._units import grid_units
from repro.service import ServiceApp, make_server

OUT = HERE / "BENCH_service.json"

# ---------------------------------------------------------------------------
# The benchmark experiment.  As in bench_orchestration.py, this module
# doubles as the experiment module: pool workers import it by dotted
# name, so submissions execute the full pipeline while the unit itself
# costs microseconds — what remains is pure service + executor overhead.
# ---------------------------------------------------------------------------

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

MODULE = "bench_service"

TITLE = "BENCH: job-service load fixture"
COLUMNS = ["x", "seed", "value"]


def run_single(seed: int, x: int) -> dict:
    """One near-free work unit; service overhead dominates it."""
    return {"x": x, "seed": seed, "value": x * 10 + seed}


def units(seeds=(0,), xs=(1,)) -> list[dict]:
    """Shardable units, canonical grid order."""
    return grid_units("run_single", {"x": list(xs)}, seeds)


def check(rows) -> None:
    """Every value derivable from its coordinates."""
    assert all(row["value"] == row["x"] * 10 + row["seed"] for row in rows)


# ---------------------------------------------------------------------------
# Client helpers
# ---------------------------------------------------------------------------


def _post_job(base: str, payload: dict) -> dict:
    request = urllib.request.Request(
        base + "/v1/jobs",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=120) as reply:
        return json.loads(reply.read())


def _job_state(base: str, job_id: str) -> str:
    with urllib.request.urlopen(
        base + f"/v1/jobs/{job_id}", timeout=120
    ) as reply:
        return json.loads(reply.read())["job"]["state"]


def _submit_and_wait(base: str, payload: dict) -> None:
    body = _post_job(base, payload)
    job_id = body["job"]["job_id"]
    while body["job"]["state"] in ("queued", "running"):
        state = _job_state(base, job_id)
        if state in ("done", "failed"):
            if state == "failed":  # pragma: no cover - bench guard
                raise SystemExit(f"benchmark job {job_id} failed")
            return
        time.sleep(0.002)


def _spec(x: int) -> dict:
    return {"experiment": "benchsvc", "params": {"xs": [x]}}


def _percentile(sorted_values: list[float], fraction: float) -> float:
    index = round(fraction * (len(sorted_values) - 1))
    return sorted_values[index]


def _stats(label: str, latencies_s: list[float], wall_s: float) -> dict:
    ordered = sorted(latencies_s)
    return {
        "workload": label,
        "requests": len(ordered),
        "rps": len(ordered) / wall_s,
        "p50_ms": _percentile(ordered, 0.50) * 1e3,
        "p99_ms": _percentile(ordered, 0.99) * 1e3,
        "max_ms": ordered[-1] * 1e3,
    }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _bench_cold(base: str, count: int, offset: int) -> dict:
    latencies = []
    start = time.perf_counter()
    for i in range(count):
        began = time.perf_counter()
        _submit_and_wait(base, _spec(offset + i))
        latencies.append(time.perf_counter() - began)
    return _stats("cold (submit + execute)", latencies, time.perf_counter() - start)


def _bench_cached(base: str, count: int, x: int) -> dict:
    _submit_and_wait(base, _spec(x))  # warm the entry
    latencies = []
    start = time.perf_counter()
    for _ in range(count):
        began = time.perf_counter()
        body = _post_job(base, _spec(x))
        if not body["cached"]:  # pragma: no cover - bench guard
            raise SystemExit("cached workload missed the cache")
        latencies.append(time.perf_counter() - began)
    return _stats("cached (store hit)", latencies, time.perf_counter() - start)


def _bench_mixed(base: str, count: int, offset: int, warm_x: int) -> dict:
    latencies = []
    start = time.perf_counter()
    for i in range(count):
        began = time.perf_counter()
        if i % 5 == 0:
            _submit_and_wait(base, _spec(offset + i))
        else:
            _post_job(base, _spec(warm_x))
        latencies.append(time.perf_counter() - began)
    return _stats("mixed (1-in-5 cold)", latencies, time.perf_counter() - start)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small workload for CI smoke"
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", type=pathlib.Path, default=OUT)
    args = parser.parse_args(argv)

    cold_n, cached_n, mixed_n = (5, 50, 20) if args.quick else (20, 400, 100)

    import importlib

    from repro.experiments import REGISTRY

    # when run as a script this file is __main__; register the importable
    # twin so the registry (and pool workers) see the dotted module name
    REGISTRY["benchsvc"] = importlib.import_module(MODULE)

    import tempfile

    app = ServiceApp(
        tempfile.mkdtemp(prefix="repro-bench-store-"),
        workers=args.workers,
        job_procs=1,
        queue_size=max(64, cold_n + mixed_n + 8),
    )
    server = make_server(app, "127.0.0.1", 0)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    host, port = server.server_address[:2]
    base = f"http://{host}:{port}"

    try:
        results = [
            _bench_cold(base, cold_n, offset=1_000),
            _bench_cached(base, cached_n, x=1),
            _bench_mixed(base, mixed_n, offset=2_000, warm_x=1),
        ]
    finally:
        server.shutdown()
        server.server_close()
        app.close()
        REGISTRY.pop("benchsvc", None)

    report = {
        "benchmark": "service-load",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "workers": args.workers,
        "quick": args.quick,
        "note": (
            "cold latency is submit-to-done over a near-free unit (one "
            "process-pool execution per request: the end-to-end floor); "
            "cached latency is the pure request path answered from the "
            "content-addressed store"
        ),
        "results": results,
        # headline pair: how much the cache buys over executing
        "cold_p99_ms": results[0]["p99_ms"],
        "cached_p99_ms": results[1]["p99_ms"],
        "cached_rps": results[1]["rps"],
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    for row in results:
        print(
            f"{row['workload']}: {row['requests']} requests, "
            f"{row['rps']:.1f} req/s, p50 {row['p50_ms']:.1f} ms, "
            f"p99 {row['p99_ms']:.1f} ms"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
