"""Route table and handlers for the job service's REST surface.

The transport layer (:mod:`repro.service.app`) owns sockets, JSON
encoding, and error mapping; this module owns *what the API means*.
Every handler is a plain function ``(app, request) -> Response`` so the
whole surface is unit-testable without ever binding a port.

Endpoints (all under ``/v1``)::

    GET  /v1/health              liveness + versions
    GET  /v1/experiments         what can be submitted
    POST /v1/jobs                submit (200 cached, 202 queued/attached)
    GET  /v1/jobs                all known jobs, newest first
    GET  /v1/jobs/<id>           one job's status record
    GET  /v1/jobs/<id>/result    rows + columns (409 until done)
    GET  /v1/jobs/<id>/events    NDJSON progress/telemetry stream
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, TYPE_CHECKING

from .. import __version__
from ..errors import ServiceError
from ..schemas import SERVICE_SCHEMA
from .schemas import job_spec_from_payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .app import ServiceApp

__all__ = ["ROUTES", "Request", "Response", "dispatch"]


@dataclass(frozen=True)
class Request:
    """One decoded HTTP request, transport details already stripped."""

    method: str
    path: str
    query: dict = field(default_factory=dict)
    payload: Any = None
    args: tuple = ()


@dataclass(frozen=True)
class Response:
    """What a handler answers: a JSON body *or* an NDJSON stream."""

    status: int = 200
    body: dict | None = None
    stream: Iterator[dict] | None = None


def _envelope(**fields: Any) -> dict:
    """A response body stamped with the service schema version."""
    return {"schema": SERVICE_SCHEMA, **fields}


def _query_float(request: Request, name: str) -> float | None:
    raw = request.query.get(name)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ServiceError(
            400, f"query parameter {name!r} must be a number, got {raw!r}"
        ) from None
    if value <= 0:
        raise ServiceError(400, f"query parameter {name!r} must be > 0")
    return value


# -- handlers -------------------------------------------------------------


def health(app: "ServiceApp", request: Request) -> Response:
    """Liveness probe: schema/library versions and queue occupancy."""
    return Response(
        body=_envelope(
            status="ok",
            version=__version__,
            jobs=len(app.manager.jobs()),
        )
    )


def experiments(app: "ServiceApp", request: Request) -> Response:
    """The submittable experiment ids with their presentation metadata."""
    from ..experiments import REGISTRY

    import inspect

    listing = []
    for experiment_id in sorted(REGISTRY):
        module = REGISTRY[experiment_id]
        parameters = inspect.signature(module.units).parameters
        listing.append(
            {
                "id": experiment_id,
                "title": module.TITLE,
                "columns": list(module.COLUMNS),
                "params": sorted(
                    name
                    for name in parameters
                    if name not in ("seeds", "faults")
                ),
                "has_seeds": "seeds" in parameters,
                "accepts_faults": "faults" in parameters,
            }
        )
    return Response(body=_envelope(experiments=listing))


def submit_job(app: "ServiceApp", request: Request) -> Response:
    """Validate and submit one job; 200 on a cache hit, 202 otherwise."""
    spec = job_spec_from_payload(request.payload)
    record, created, cached = app.manager.submit(spec)
    return Response(
        status=200 if cached else 202,
        body=_envelope(created=created, cached=cached, job=record.as_dict()),
    )


def list_jobs(app: "ServiceApp", request: Request) -> Response:
    """Every known job's status record, newest submission first."""
    return Response(
        body=_envelope(
            jobs=[record.as_dict() for record in app.manager.jobs()]
        )
    )


def job_status(app: "ServiceApp", request: Request) -> Response:
    """One job's status record (404 for unknown ids)."""
    record = app.manager.get(request.args[0])
    return Response(body=_envelope(job=record.as_dict()))


def job_result(app: "ServiceApp", request: Request) -> Response:
    """The finished job's rows, read back from the store (409 until done)."""
    return Response(body=_envelope(**app.manager.result(request.args[0])))


def job_events(app: "ServiceApp", request: Request) -> Response:
    """NDJSON stream: job snapshot, per-shard telemetry, final snapshot.

    ``?timeout_s=<n>`` bounds how long the stream waits on a stalled
    job (default: wait for as long as the job runs).
    """
    job_id = request.args[0]
    app.manager.get(job_id)  # 404 before committing to a stream
    return Response(
        stream=app.manager.iter_events(
            job_id, timeout_s=_query_float(request, "timeout_s")
        )
    )


#: Method + path-pattern → handler.  Patterns match the *full* path.
ROUTES: tuple = (
    ("GET", re.compile(r"/v1/health"), health),
    ("GET", re.compile(r"/v1/experiments"), experiments),
    ("POST", re.compile(r"/v1/jobs"), submit_job),
    ("GET", re.compile(r"/v1/jobs"), list_jobs),
    ("GET", re.compile(r"/v1/jobs/([\w.-]+)"), job_status),
    ("GET", re.compile(r"/v1/jobs/([\w.-]+)/result"), job_result),
    ("GET", re.compile(r"/v1/jobs/([\w.-]+)/events"), job_events),
)


def dispatch(
    app: "ServiceApp",
    method: str,
    path: str,
    query: dict,
    payload: Any,
) -> Response:
    """Route one request to its handler (404/405 when nothing matches)."""
    path_seen = False
    for route_method, pattern, handler in ROUTES:
        match = pattern.fullmatch(path)
        if match is None:
            continue
        path_seen = True
        if route_method != method:
            continue
        request = Request(
            method=method,
            path=path,
            query=query,
            payload=payload,
            args=match.groups(),
        )
        return handler(app, request)
    if path_seen:
        raise ServiceError(405, f"method {method} not allowed for {path}")
    raise ServiceError(404, f"no such endpoint: {method} {path}")
