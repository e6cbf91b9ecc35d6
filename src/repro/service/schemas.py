"""Request/response shapes for the job service (schema ``repro.service/1``).

A job submission is a JSON object::

    {
      "experiment": "exp1",          // required, a REGISTRY id
      "seeds": 3,                    // optional, seeds 0..seeds-1
      "params": {"n": 50},           // optional units() kwarg overrides
      "faults": { ... },             // optional repro.faults/1 plan body
      "shard_size": 1,               // optional execution knobs —
      "timeout_s": 30.0,             //   *not* part of the cache key
      "retries": 1
    }

:func:`job_spec_from_payload` validates and normalises that into a
:class:`JobSpec`.  Validation is strict where the CLI is lenient: a
``params`` key the experiment's ``units()`` does not accept is a 400,
not a silent fallback to defaults — a remote caller has no stderr to
notice the sweep it asked for is not the sweep that ran.

Registry-backed experiments (EXP-14's algorithm arena) need no schema
extension: their ``units()`` takes an ``algorithm`` selector, so
``"params": {"algorithm": "fuchs_prutkin,kuhn_multicolor"}`` validates
like any other override and — because the selector becomes a unit axis
— lands in the ``config_hash`` exactly as the CLI's ``--algorithm``
flag does.  Distinct selectors are distinct cache entries.

The split between *work* fields (experiment, seeds, params, faults —
everything that reaches ``units()`` and therefore the
``config_hash``) and *execution* fields (shard size, timeout, retries)
is what makes the result cache content-addressed: two specs that
describe the same rows share a cache entry no matter how they asked for
the work to be scheduled.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..errors import ServiceError
from ..faults.plan import FaultPlan

__all__ = ["JobSpec", "job_spec_from_payload"]

#: Keys a submission may carry; anything else is a 400 (catches typos
#: like "fualts" that would otherwise silently change the work).
_ALLOWED_KEYS = frozenset(
    {
        "experiment",
        "seeds",
        "params",
        "faults",
        "shard_size",
        "timeout_s",
        "retries",
    }
)

#: ``params`` keys that must come through their dedicated top-level
#: field instead, so the cache-key canonicalisation has one spelling.
_RESERVED_PARAMS = ("seeds", "faults")


@dataclass(frozen=True)
class JobSpec:
    """One validated, normalised job submission.

    ``seeds is None`` means the experiment's ``units()`` takes no seed
    axis (or the caller accepted its default seed set — the two are
    normalised apart: an explicit ``seeds`` is always honoured or
    rejected, never dropped).
    """

    experiment: str
    seeds: int | None = None
    params: dict = field(default_factory=dict)
    faults: dict | None = None
    shard_size: int = 1
    timeout_s: float | None = None
    retries: int = 1

    def unit_kwargs(self) -> dict:
        """The ``units()`` overrides this spec describes."""
        kwargs: dict[str, Any] = dict(self.params)
        if self.seeds is not None:
            kwargs["seeds"] = range(self.seeds)
        return kwargs

    def as_dict(self) -> dict:
        """JSON-ready echo of the spec (what the job record reports)."""
        payload: dict[str, Any] = {"experiment": self.experiment}
        if self.seeds is not None:
            payload["seeds"] = self.seeds
        if self.params:
            payload["params"] = dict(self.params)
        if self.faults is not None:
            payload["faults"] = self.faults
        payload["shard_size"] = self.shard_size
        if self.timeout_s is not None:
            payload["timeout_s"] = self.timeout_s
        payload["retries"] = self.retries
        return payload


def _bad(message: str) -> ServiceError:
    return ServiceError(400, message)


def _require_type(name: str, value: Any, kind: type, label: str) -> Any:
    if isinstance(value, bool) and kind is not bool:
        raise _bad(f"'{name}' must be {label}, got {value!r}")
    if not isinstance(value, kind):
        raise _bad(f"'{name}' must be {label}, got {value!r}")
    return value


def _units_parameters(experiment: str) -> Mapping[str, inspect.Parameter]:
    """The experiment's ``units()`` signature (for override validation)."""
    from ..experiments import REGISTRY

    return inspect.signature(REGISTRY[experiment].units).parameters


def job_spec_from_payload(payload: Any) -> JobSpec:
    """Validate a decoded request body into a :class:`JobSpec`.

    Raises :class:`~repro.errors.ServiceError` (status 400) on every
    malformed input, with a message naming the offending field.
    """
    from ..experiments import REGISTRY

    if not isinstance(payload, dict):
        raise _bad("request body must be a JSON object")
    unknown = sorted(set(payload) - _ALLOWED_KEYS)
    if unknown:
        raise _bad(
            f"unknown field(s) {unknown}; allowed: {sorted(_ALLOWED_KEYS)}"
        )

    experiment = payload.get("experiment")
    if not isinstance(experiment, str) or experiment not in REGISTRY:
        raise _bad(
            f"'experiment' must be one of {sorted(REGISTRY)}, "
            f"got {experiment!r}"
        )
    parameters = _units_parameters(experiment)

    seeds = payload.get("seeds")
    if seeds is not None:
        _require_type("seeds", seeds, int, "an integer")
        if seeds < 1:
            raise _bad(f"'seeds' must be >= 1, got {seeds}")
        if "seeds" not in parameters:
            raise _bad(
                f"experiment {experiment!r} has no seed axis; "
                "omit 'seeds' for its fixed grid"
            )
    elif "seeds" in parameters:
        # Explicit default: the spec that reaches the cache key always
        # names its seed count, so "default" and "seeds: 2" are one entry.
        seeds = 2

    params = payload.get("params") or {}
    _require_type("params", params, dict, "a JSON object")
    # mirror the executor's _resolve_units: a units() taking **kwargs
    # accepts any override key, so only reject unknowns against an
    # explicit signature
    accepts_kwargs = any(
        parameter.kind is inspect.Parameter.VAR_KEYWORD
        for parameter in parameters.values()
    )
    for key in params:
        if not isinstance(key, str):
            raise _bad(f"'params' keys must be strings, got {key!r}")
        if key in _RESERVED_PARAMS:
            raise _bad(
                f"'params.{key}' must be passed as the top-level "
                f"'{key}' field"
            )
        if key not in parameters and not accepts_kwargs:
            accepted = sorted(set(parameters) - set(_RESERVED_PARAMS))
            raise _bad(
                f"experiment {experiment!r} does not accept param "
                f"{key!r}; accepted: {accepted}"
            )

    faults = payload.get("faults")
    if faults is not None:
        _require_type("faults", faults, dict, "a JSON object (repro.faults/1)")
        if "faults" not in parameters:
            raise _bad(
                f"experiment {experiment!r} does not accept a fault plan"
            )
        try:
            faults = FaultPlan.coerce(faults).to_dict()
        except Exception as failure:
            raise _bad(f"invalid fault plan: {failure}") from failure

    shard_size = payload.get("shard_size", 1)
    _require_type("shard_size", shard_size, int, "an integer")
    if shard_size < 1:
        raise _bad(f"'shard_size' must be >= 1, got {shard_size}")

    timeout_s = payload.get("timeout_s")
    if timeout_s is not None:
        _require_type("timeout_s", timeout_s, (int, float), "a number")
        if timeout_s <= 0:
            raise _bad(f"'timeout_s' must be > 0, got {timeout_s}")
        timeout_s = float(timeout_s)

    retries = payload.get("retries", 1)
    _require_type("retries", retries, int, "an integer")
    if retries < 0:
        raise _bad(f"'retries' must be >= 0, got {retries}")

    return JobSpec(
        experiment=experiment,
        seeds=seeds,
        params=dict(params),
        faults=faults,
        shard_size=shard_size,
        timeout_s=timeout_s,
        retries=retries,
    )
