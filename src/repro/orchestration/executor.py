"""The parallel sweep driver: process pool + retry + graceful interrupt.

:func:`run_sharded` turns one registered experiment into a sharded
parallel job:

1. Ask the experiment for its canonical unit list (``module.units``).
2. Plan contiguous shards (:func:`~repro.orchestration.plan.plan_shards`)
   and fingerprint the work (:func:`~repro.orchestration.plan.config_hash`).
3. With a store and ``resume=True``, load already-persisted shards and
   run only the rest.
4. Execute pending shards on a :class:`~concurrent.futures.ProcessPoolExecutor`
   with bounded retry; per-shard timeouts are raised inside the worker
   (see :mod:`repro.orchestration.worker`), so a timed-out shard retries
   like any other failure.
5. Persist each shard as it completes (atomic write), so an interrupt or
   crash at any point loses at most the in-flight shards.

Interrupts: with ``install_sigint=True`` the first Ctrl-C stops new
submissions, drains in-flight shards, persists them and returns a result
with ``interrupted=True``; a second Ctrl-C raises ``KeyboardInterrupt``
immediately.  Library callers can trigger the same drain by setting the
``stop`` event (e.g. from a progress callback).
"""

from __future__ import annotations

import importlib
import inspect
import pathlib
import threading
import time
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from ..errors import ConfigurationError
from .._validation import require_int
from ..faults.plan import FaultPlan
from .plan import Shard, config_hash, plan_shards
from .store import RunStore, STORE_SCHEMA
from .worker import execute_shard, init_worker

__all__ = ["SweepPlan", "SweepResult", "plan_sweep", "run_sharded"]

#: Keep at most this many shards queued per worker so a stop request
#: never has to wait on a deep submission backlog.
_SUBMIT_WINDOW = 2


@dataclass
class SweepResult:
    """Everything one parallel sweep produced and how it got there."""

    experiment: str
    config_hash: str
    num_shards: int
    shard_size: int
    jobs: int
    records: dict[int, dict] = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    resumed: list[int] = field(default_factory=list)
    executed: list[int] = field(default_factory=list)
    interrupted: bool = False
    wall_s: float = 0.0
    store_dir: pathlib.Path | None = None

    @property
    def complete(self) -> bool:
        """True when every planned shard has a result."""
        return len(self.records) == self.num_shards

    @property
    def rows(self) -> list[dict]:
        """Completed shards' rows, concatenated in canonical shard order.

        Row-for-row identical to the serial ``run_units`` output when
        :attr:`complete`; on an interrupted or failed sweep it holds the
        completed subset (still in canonical order).
        """
        return [
            row
            for index in sorted(self.records)
            for row in self.records[index]["rows"]
        ]

    def summary(self) -> dict:
        """Headline numbers, in telemetry-summary shape."""
        return {
            "experiment": self.experiment,
            "config_hash": self.config_hash,
            "jobs": self.jobs,
            "shards": self.num_shards,
            "shard_size": self.shard_size,
            "shards_done": len(self.records),
            "shards_resumed": len(self.resumed),
            "shards_executed": len(self.executed),
            "failures": len(self.failures),
            "interrupted": self.interrupted,
            "rows": len(self.rows),
            "wall_s": self.wall_s,
            "shard_wall_s": sum(r["wall_s"] for r in self.records.values()),
        }


def _resolve_units(
    experiment: str, module_path: str, unit_kwargs: dict | None
) -> list[dict]:
    """The experiment's canonical unit list, honouring kwarg overrides.

    An override ``units()`` does not accept raises, naming the experiment
    and the key: dropping it would run a different sweep than the one
    asked for.  The one exception is ``seeds``, which falls back to the
    module's default (exp10's grid has no seed axis).
    """
    module = importlib.import_module(module_path)
    if not hasattr(module, "units"):
        raise ConfigurationError(
            f"{module_path} does not expose units(); not a shardable experiment"
        )
    if not unit_kwargs:
        return list(module.units())
    # Inspecting the signature instead of catching TypeError keeps a
    # TypeError raised *inside* units() loud.
    parameters = inspect.signature(module.units).parameters
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return list(module.units(**unit_kwargs))
    refused = [k for k in unit_kwargs if k not in parameters and k != "seeds"]
    if refused:
        raise ConfigurationError(
            f"experiment {experiment!r} does not accept "
            f"{', '.join(map(repr, refused))} in units(); it cannot honour "
            "that override"
        )
    supported = {k: v for k, v in unit_kwargs.items() if k in parameters}
    return list(module.units(**supported))


@dataclass(frozen=True)
class SweepPlan:
    """One sweep's work description, fingerprinted but not yet executed.

    The planning half of :func:`run_sharded`, exposed so callers that
    need the cache key *before* committing to an execution — the job
    service's content-addressed result cache, dry-run tooling — derive
    it from exactly the code path the executor itself uses.  Two plans
    with equal ``config_hash`` describe byte-identical unit lists.
    """

    experiment: str
    module: str
    units: tuple
    config_hash: str

    @property
    def num_units(self) -> int:
        """How many independent units the sweep decomposes into."""
        return len(self.units)


def plan_sweep(
    experiment: str,
    *,
    unit_kwargs: dict | None = None,
    module: str | None = None,
    faults: FaultPlan | dict | None = None,
    algorithm: str | None = None,
) -> SweepPlan:
    """Resolve one sweep's canonical unit list and its config hash.

    Mirrors :func:`run_sharded`'s planning exactly — same registry
    lookup, same fault-plan canonicalisation, same algorithm folding —
    and is what :func:`run_sharded` itself calls, so a cache keyed on
    the returned ``config_hash`` can never disagree with the hash an
    actual execution stores under.
    """
    if module is None:
        from ..experiments import REGISTRY

        if experiment not in REGISTRY:
            raise ConfigurationError(
                f"unknown experiment {experiment!r}; pick one of "
                f"{sorted(REGISTRY)}"
            )
        module = REGISTRY[experiment].__name__

    if faults is not None:
        unit_kwargs = dict(unit_kwargs or {})
        unit_kwargs["faults"] = FaultPlan.coerce(faults).to_dict()
    if algorithm is not None:
        # The algorithm selector picks different work entirely, so it
        # must reach units() (registry-backed experiments expand it into
        # their algorithm axis) and therefore the config hash; silently
        # dropping it would sweep the whole zoo when one entry was asked
        # for.  ``None`` keeps unit lists byte-identical to pre-arena
        # releases.
        unit_kwargs = dict(unit_kwargs or {})
        unit_kwargs["algorithm"] = algorithm

    units = _resolve_units(experiment, module, unit_kwargs)
    return SweepPlan(
        experiment=experiment,
        module=module,
        units=tuple(units),
        config_hash=config_hash(experiment, units, STORE_SCHEMA),
    )


def run_sharded(
    experiment: str,
    *,
    jobs: int = 2,
    shard_size: int = 1,
    unit_kwargs: dict | None = None,
    store: RunStore | str | pathlib.Path | None = None,
    resume: bool = False,
    timeout_s: float | None = None,
    retries: int = 1,
    progress: Callable[[str], None] | None = None,
    stop: threading.Event | None = None,
    install_sigint: bool = False,
    module: str | None = None,
    faults: FaultPlan | dict | None = None,
    algorithm: str | None = None,
) -> SweepResult:
    """Run one experiment's sweep as parallel shards; see module docstring.

    Parameters mirror the ``repro sweep`` CLI: ``jobs`` worker processes,
    ``shard_size`` units per shard, ``timeout_s`` per-shard budget,
    ``retries`` extra attempts per shard before its failure is recorded.
    ``module`` overrides the dotted module path (defaults to the
    ``REGISTRY`` entry for ``experiment``); ``unit_kwargs`` are passed to
    the experiment's ``units()``, and a key it does not accept raises
    (except ``seeds``, dropped for seedless grids).

    ``faults`` injects a :class:`~repro.faults.FaultPlan` into every unit
    (validated, canonicalised, and therefore folded into the config hash
    — a resumed sweep with a different plan is a different run).  An
    experiment whose ``units()`` does not accept ``faults`` raises.

    ``algorithm`` selects zoo entries for registry-backed experiments
    (EXP-14's ``--algorithm``: a name, a comma-separated subset, or
    ``"all"``).  Like ``faults`` it changes the rows, so it is folded
    into every unit and the config hash; experiments whose ``units()``
    does not accept it raise.

    Returns a :class:`SweepResult`; raises nothing on shard failures or
    interrupts — inspect ``failures`` / ``interrupted`` instead.
    """
    require_int("jobs", jobs, minimum=1)
    require_int("retries", retries, minimum=0)
    if timeout_s is not None and timeout_s <= 0:
        raise ConfigurationError(f"timeout_s must be positive, got {timeout_s}")
    if resume and store is None:
        raise ConfigurationError("--resume needs a --store to resume from")

    sweep_plan = plan_sweep(
        experiment,
        unit_kwargs=unit_kwargs,
        module=module,
        faults=faults,
        algorithm=algorithm,
    )
    module = sweep_plan.module
    units = list(sweep_plan.units)
    shards = plan_shards(units, shard_size)
    cfg_hash = sweep_plan.config_hash

    if store is not None and not isinstance(store, RunStore):
        store = RunStore(store)

    result = SweepResult(
        experiment=experiment,
        config_hash=cfg_hash,
        num_shards=len(shards),
        shard_size=shard_size,
        jobs=jobs,
        store_dir=store.run_dir(experiment, cfg_hash) if store else None,
    )
    say = progress or (lambda message: None)
    began = time.perf_counter()  # repro: noqa[DET001] wall-clock provenance only; rows are unaffected

    pending: list[Shard] = list(shards)
    if store is not None:
        store.validate_resume(experiment, cfg_hash, len(shards))
        store.write_manifest(
            experiment, cfg_hash, units, len(shards), shard_size
        )
        if resume:
            done = store.completed_shards(experiment, cfg_hash, len(shards))
            result.records.update(done)
            result.resumed = sorted(done)
            pending = [shard for shard in shards if shard.index not in done]
            if done:
                say(
                    f"resume: {len(done)}/{len(shards)} shards already in "
                    f"{result.store_dir}"
                )

    stop = stop or threading.Event()
    previous_handler = None
    if install_sigint:
        import signal

        def _interrupt(signum, frame):
            if stop.is_set():  # second Ctrl-C: give up immediately
                signal.signal(signal.SIGINT, previous_handler)
                raise KeyboardInterrupt
            stop.set()
            say("interrupt: draining in-flight shards (Ctrl-C again to abort)")

        previous_handler = signal.signal(signal.SIGINT, _interrupt)

    def payload_for(shard: Shard) -> dict:
        payload = {
            "module": module,
            "experiment": experiment,
            "config_hash": cfg_hash,
            "shard": shard.index,
            "start": shard.start,
            "units": list(shard.units),
            "timeout_s": timeout_s,
        }
        if store is not None:
            payload["telemetry_path"] = str(
                store.telemetry_path(experiment, cfg_hash, shard.index)
            )
        return payload

    attempts: dict[int, int] = {}
    try:
        if pending:
            with futures.ProcessPoolExecutor(
                max_workers=jobs, initializer=init_worker
            ) as pool:
                queue = list(pending)
                in_flight: dict[futures.Future, Shard] = {}

                def submit_up_to_window() -> None:
                    while (
                        queue
                        and not stop.is_set()
                        and len(in_flight) < jobs * _SUBMIT_WINDOW
                    ):
                        shard = queue.pop(0)
                        attempts[shard.index] = attempts.get(shard.index, 0) + 1
                        in_flight[pool.submit(execute_shard, payload_for(shard))] = shard

                submit_up_to_window()
                while in_flight:
                    done, _ = futures.wait(
                        in_flight, timeout=0.2,
                        return_when=futures.FIRST_COMPLETED,
                    )
                    for future in done:
                        shard = in_flight.pop(future)
                        try:
                            record = future.result()
                        except BrokenProcessPool as failure:
                            # a worker died hard (OOM-kill, segfault);
                            # the pool is unusable — record and stop.
                            for victim in [shard, *in_flight.values()]:
                                result.failures.append(
                                    {
                                        "shard": victim.index,
                                        "error": f"BrokenProcessPool: {failure}",
                                        "attempts": attempts.get(victim.index, 1),
                                    }
                                )
                            in_flight.clear()
                            stop.set()
                            break
                        except BaseException as failure:
                            if (
                                attempts[shard.index] <= retries
                                and not stop.is_set()
                            ):
                                say(
                                    f"{shard.describe()} failed "
                                    f"({type(failure).__name__}: {failure}); "
                                    f"retry {attempts[shard.index]}/{retries}"
                                )
                                queue.append(shard)
                            else:
                                result.failures.append(
                                    {
                                        "shard": shard.index,
                                        "error": f"{type(failure).__name__}: {failure}",
                                        "attempts": attempts[shard.index],
                                    }
                                )
                                say(
                                    f"{shard.describe()} FAILED after "
                                    f"{attempts[shard.index]} attempt(s): {failure}"
                                )
                            continue
                        if store is not None:
                            store.save_shard(experiment, cfg_hash, record)
                        result.records[shard.index] = record
                        result.executed.append(shard.index)
                        say(
                            f"[{len(result.records)}/{len(shards)}] "
                            f"{shard.describe()} done: "
                            f"{len(record['rows'])} rows in {record['wall_s']:.2f}s"
                        )
                    submit_up_to_window()
                settled = set(result.records) | {
                    f["shard"] for f in result.failures
                }
                if stop.is_set() and len(settled) < len(shards):
                    result.interrupted = True
        result.executed.sort()
    finally:
        if install_sigint:
            import signal

            signal.signal(signal.SIGINT, previous_handler)

    result.wall_s = time.perf_counter() - began  # repro: noqa[DET001] wall-clock provenance only; rows are unaffected
    if result.interrupted and store is not None:
        say(
            f"interrupted: {len(result.records)}/{len(shards)} shards "
            f"persisted in {result.store_dir}; rerun with --resume to finish"
        )
    return result
