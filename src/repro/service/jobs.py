"""Job lifecycle: submission, dedup, queue, worker pool, event streams.

One job = one sweep, identified by ``<experiment>-<config_hash>`` — the
job id *is* the cache key.  Submitting a spec whose hash is already
known attaches to the existing job (queued, running or done) instead of
creating new work; submitting a spec whose complete result is already in
the store returns a finished record without executing anything.  That is
the whole dedup story: content addressing makes "same work" a string
comparison.

Execution happens on a small pool of worker *threads*, each driving
:func:`~repro.orchestration.run_sharded` (which fans out to worker
*processes*) with ``resume=True`` against the shared store — so a job
that previously failed halfway re-runs only its missing shards, and a
crash of the service itself loses nothing that was persisted.

Wall-clock timestamps and durations recorded on job records are
provenance for API clients, never inputs to any computation — the
``service/`` package is a documented DET001/DET004 boundary exemption
(see docs/STATIC_ANALYSIS.md).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator

from ..errors import ConfigurationError, ServiceError
from ..orchestration.executor import plan_sweep, run_sharded
from ..orchestration.plan import plan_shards
from ..orchestration.store import RunStore
from ..telemetry.tail import follow_jsonl
from .cache import ResultCache
from .schemas import JobSpec

__all__ = ["JobManager", "JobRecord"]

#: Progress lines retained per job (older lines roll off).
_MAX_LOG_LINES = 200

_QUEUED = "queued"
_RUNNING = "running"
_DONE = "done"
_FAILED = "failed"


@dataclass
class JobRecord:
    """One job's full lifecycle, as reported by the status endpoints."""

    job_id: str
    experiment: str
    config_hash: str
    spec: JobSpec
    num_units: int
    num_shards: int
    shard_size: int
    state: str = _QUEUED
    cached: bool = False
    executions: int = 0
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    wall_s: float | None = None
    rows_count: int | None = None
    check_passed: bool | None = None
    error: str | None = None
    failures: list = field(default_factory=list)
    log_lines: list = field(default_factory=list)

    def log(self, message: str) -> None:
        """Append one progress line (bounded; used as ``progress=``)."""
        self.log_lines.append(message)
        del self.log_lines[:-_MAX_LOG_LINES]

    def as_dict(self) -> dict:
        """JSON-ready snapshot for API responses."""
        return {
            "job_id": self.job_id,
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "spec": self.spec.as_dict(),
            "state": self.state,
            "cached": self.cached,
            "executions": self.executions,
            "num_units": self.num_units,
            "num_shards": self.num_shards,
            "shard_size": self.shard_size,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "wall_s": self.wall_s,
            "rows_count": self.rows_count,
            "check_passed": self.check_passed,
            "error": self.error,
            "failures": list(self.failures),
            "log": list(self.log_lines[-20:]),
        }


def _check_rows(experiment: str, rows: list) -> bool:
    """The experiment's own ``check()`` verdict over served rows."""
    from ..experiments import REGISTRY

    try:
        REGISTRY[experiment].check(list(rows))
    except AssertionError:
        return False
    return True


class JobManager:
    """Submission front end + worker pool over one shared run store."""

    def __init__(
        self,
        store: RunStore | str,
        *,
        workers: int = 2,
        job_procs: int = 1,
        queue_size: int = 64,
        run_check: bool = True,
    ) -> None:
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.cache = ResultCache(self.store)
        self.job_procs = max(1, int(job_procs))
        self.run_check = bool(run_check)
        self._jobs: dict[str, JobRecord] = {}
        self._lock = threading.Lock()
        self._queue: queue.Queue = queue.Queue(maxsize=max(1, int(queue_size)))
        self._threads = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-job-{i}", daemon=True
            )
            for i in range(max(1, int(workers)))
        ]
        for thread in self._threads:
            thread.start()

    # -- submission -------------------------------------------------------

    def submit(self, spec: JobSpec) -> tuple[JobRecord, bool, bool]:
        """Register (or join) the job a spec describes.

        Returns ``(record, created, cached)``: ``created`` is False when
        the submission attached to an already-known job id; ``cached``
        is True when the complete result was served from the store with
        no execution (including attaching to an already-finished job).
        """
        plan = plan_sweep(
            spec.experiment,
            unit_kwargs=spec.unit_kwargs(),
            faults=spec.faults,
        )
        job_id = f"{spec.experiment}-{plan.config_hash}"

        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                if existing.state == _FAILED:
                    # a failed job may be resubmitted; completed shards
                    # resume from the store, only missing work re-runs
                    existing.state = _QUEUED
                    existing.error = None
                    existing.failures = []
                    existing.submitted_at = time.time()
                    self._enqueue(job_id)
                return existing, False, existing.state == _DONE

            # a prior (possibly partial) run pins the shard layout
            layout = self.cache.stored_layout(spec.experiment, plan.config_hash)
            if layout is not None:
                num_shards, shard_size = layout
            else:
                shard_size = spec.shard_size
                num_shards = len(plan_shards(list(plan.units), shard_size))

            record = JobRecord(
                job_id=job_id,
                experiment=spec.experiment,
                config_hash=plan.config_hash,
                spec=spec,
                num_units=plan.num_units,
                num_shards=num_shards,
                shard_size=shard_size,
                submitted_at=time.time(),
            )
            self._jobs[job_id] = record

            hit = self.cache.lookup(spec.experiment, plan.config_hash)
            if hit is not None and hit.num_shards == num_shards:
                record.state = _DONE
                record.cached = True
                record.finished_at = record.submitted_at
                record.wall_s = 0.0
                record.rows_count = hit.num_rows
                if self.run_check:
                    record.check_passed = _check_rows(
                        spec.experiment, list(hit.rows)
                    )
                record.log("served from content-addressed cache")
                return record, True, True

            self._enqueue(job_id)
            return record, True, False

    def _enqueue(self, job_id: str) -> None:
        try:
            self._queue.put_nowait(job_id)
        except queue.Full:
            self._jobs.pop(job_id, None)
            raise ServiceError(
                503, "job queue is full; retry after in-flight work drains"
            ) from None

    # -- queries ----------------------------------------------------------

    def get(self, job_id: str) -> JobRecord:
        """The record for ``job_id``; 404 when unknown."""
        with self._lock:
            record = self._jobs.get(job_id)
        if record is None:
            raise ServiceError(404, f"unknown job {job_id!r}")
        return record

    def jobs(self) -> list[JobRecord]:
        """All records, newest submission first."""
        with self._lock:
            records = list(self._jobs.values())
        return sorted(records, key=lambda r: (-r.submitted_at, r.job_id))

    def result(self, job_id: str) -> dict:
        """The finished job's rows (always read back from the store)."""
        record = self.get(job_id)
        if record.state != _DONE:
            raise ServiceError(
                409,
                f"job {job_id} is {record.state}; the result exists only "
                "once the job reaches state 'done'"
                + (f" (error: {record.error})" if record.error else ""),
            )
        hit = self.cache.lookup(record.experiment, record.config_hash)
        if hit is None:
            raise ServiceError(
                500, f"job {job_id} is done but its store entry is unreadable"
            )
        from ..experiments import REGISTRY

        return {
            "job_id": record.job_id,
            "experiment": record.experiment,
            "config_hash": record.config_hash,
            "columns": list(REGISTRY[record.experiment].COLUMNS),
            "rows": [dict(row) for row in hit.rows],
            "num_rows": hit.num_rows,
            "check_passed": record.check_passed,
            "shard_wall_s": hit.shard_wall_s,
        }

    # -- event streaming --------------------------------------------------

    def iter_events(
        self,
        job_id: str,
        *,
        poll_s: float = 0.05,
        timeout_s: float | None = None,
    ) -> Iterator[dict]:
        """NDJSON-ready progress events for one job.

        Yields a ``job`` snapshot, then every record of every shard
        telemetry artifact in canonical shard order (each wrapped as
        ``{"k": "telemetry", "shard": i, "record": ...}``), following
        the store live while the job executes, and a final ``job``
        snapshot once the job settles.  For finished (or cached) jobs
        this replays the exact on-disk artifacts.
        """
        record = self.get(job_id)
        yield {"k": "job", "job": record.as_dict()}
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        for index in range(record.num_shards):
            while not self.cache.shard_done(
                record.experiment, record.config_hash, index
            ):
                if record.state == _FAILED:
                    break
                if deadline is not None and time.monotonic() > deadline:
                    raise ServiceError(
                        504, f"timed out streaming job {job_id}"
                    )
                time.sleep(poll_s)
            if not self.cache.shard_done(
                record.experiment, record.config_hash, index
            ):
                break  # job failed with this shard never produced
            path = self.cache.telemetry_path(
                record.experiment, record.config_hash, index
            )
            try:
                for telemetry_record in follow_jsonl(
                    path, poll_s=poll_s, complete=lambda: True
                ):
                    yield {
                        "k": "telemetry",
                        "shard": index,
                        "record": telemetry_record,
                    }
            except ConfigurationError as failure:
                yield {"k": "error", "shard": index, "error": str(failure)}
        while record.state in (_QUEUED, _RUNNING):
            if deadline is not None and time.monotonic() > deadline:
                raise ServiceError(504, f"timed out streaming job {job_id}")
            time.sleep(poll_s)
        yield {"k": "job", "job": record.as_dict()}

    # -- execution --------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self._queue.get()
            if job_id is None:
                return
            with self._lock:
                record = self._jobs.get(job_id)
            if record is None:
                continue
            self._execute(record)

    def _execute(self, record: JobRecord) -> None:
        record.state = _RUNNING
        record.started_at = time.time()
        record.executions += 1
        spec = record.spec
        try:
            result = run_sharded(
                record.experiment,
                jobs=self.job_procs,
                shard_size=record.shard_size,
                unit_kwargs=spec.unit_kwargs(),
                store=self.store,
                resume=True,
                timeout_s=spec.timeout_s,
                retries=spec.retries,
                progress=record.log,
                faults=spec.faults,
            )
        except Exception as failure:
            record.state = _FAILED
            record.error = f"{type(failure).__name__}: {failure}"
            record.finished_at = time.time()
            record.wall_s = record.finished_at - (record.started_at or 0.0)
            return
        record.finished_at = time.time()
        record.wall_s = result.wall_s
        record.failures = list(result.failures)
        if result.complete:
            record.state = _DONE
            record.rows_count = len(result.rows)
            if self.run_check:
                record.check_passed = _check_rows(
                    record.experiment, result.rows
                )
        else:
            record.state = _FAILED
            record.error = (
                f"{len(result.failures)} shard(s) failed; "
                "resubmit to retry the missing shards"
            )

    # -- shutdown ---------------------------------------------------------

    def shutdown(self, timeout_s: float = 5.0) -> None:
        """Stop the workers (in-flight jobs finish; queued jobs drop)."""
        for _ in self._threads:
            try:
                self._queue.put_nowait(None)
            except queue.Full:
                break
        for thread in self._threads:
            thread.join(timeout=timeout_s)
