"""Coloring-as-a-service: an HTTP job API over the orchestration layer.

``repro serve`` turns the repository's sweep machinery into a
long-running REST service (stdlib only — no framework):

* **Submission** — ``POST /v1/jobs`` with an experiment id plus optional
  seeds/params/fault-plan; strict validation, then the job is
  keyed by the orchestration config hash.
* **Content-addressed caching** — a job whose complete result already
  sits in the run store answers immediately (HTTP 200) without
  executing; identical in-flight submissions attach to the running job.
* **Execution** — a worker-thread pool drives
  :func:`~repro.orchestration.run_sharded` (process pool, timeouts,
  retries, resume) against the shared store.
* **Streaming telemetry** — ``GET /v1/jobs/<id>/events`` replays each
  shard's telemetry JSONL live as NDJSON, following the store while the
  job runs.

See ``docs/SERVICE.md`` for the endpoint reference and a worked
session, and ``benchmarks/perf/bench_service.py`` for the load-test
harness behind ``BENCH_service.json``.
"""

from __future__ import annotations

from .app import ServiceApp, make_server, serve
from .cache import CachedRun, ResultCache
from .jobs import JobManager, JobRecord
from .routes import Request, Response, ROUTES, dispatch
from .schemas import JobSpec, job_spec_from_payload

__all__ = [
    "CachedRun",
    "JobManager",
    "JobRecord",
    "JobSpec",
    "Request",
    "Response",
    "ROUTES",
    "ResultCache",
    "ServiceApp",
    "dispatch",
    "job_spec_from_payload",
    "make_server",
    "serve",
]
