"""Declarative fault plans.

A :class:`FaultPlan` is the single description of everything that may go
wrong during a run: node outages (crash / sleep / restart), external
jammers with their own position and power, i.i.d. per-delivery message
drops and corruption, per-node slot desynchronisation, and adversarial
wake-up patterns.  Plans are immutable, validated on construction, and
round-trip through plain JSON (``schema`` :data:`~repro.schemas.FAULT_PLAN_SCHEMA`),
so the same plan object drives a single run (``faults=`` on the run
harnesses), a CLI invocation (``--faults plan.json``) and a sharded sweep
(the canonical dict participates in the orchestration config hash).

Everything here is *declarative*: the plan never touches an RNG itself.
The executable side — applying a plan to a channel — lives in
:mod:`repro.faults.channel`; wake-up patterns materialise through
:meth:`WakeupSpec.schedule`.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

import numpy as np

from .._validation import (
    require_in,
    require_int,
    require_positive,
    require_probability,
)
from ..errors import ConfigurationError
from ..schemas import FAULT_PLAN_SCHEMA
from ..simulation.scheduler import WakeupSchedule

__all__ = [
    "FaultPlan",
    "Jammer",
    "MessageFaults",
    "NodeOutage",
    "SlotSkew",
    "WakeupSpec",
    "load_fault_plan",
]

#: Wake-up patterns :meth:`WakeupSpec.schedule` can materialise.
WAKEUP_PATTERNS = ("synchronous", "random", "staggered", "bursts")


def _require_stop(name: str, start: int, stop: int | None) -> int | None:
    if stop is None:
        return None
    require_int(name, stop, minimum=0)
    if stop <= start:
        raise ConfigurationError(
            f"{name} must be > start ({start}), got {stop}"
        )
    return stop


@dataclass(frozen=True)
class NodeOutage:
    """Node ``node`` is down (radio off) for slots ``start <= slot < stop``.

    ``stop=None`` models a crash that never restarts; a finite ``stop``
    models sleep with a restart.  A down node neither transmits (its
    interference disappears with it) nor receives; its local state
    machine keeps running — the paper's nodes wake spontaneously and
    carry no global clock, so an outage is invisible to the node itself.
    """

    node: int
    start: int = 0
    stop: int | None = None

    def __post_init__(self) -> None:
        require_int("node", self.node, minimum=0)
        require_int("start", self.start, minimum=0)
        _require_stop("stop", self.start, self.stop)

    def down(self, slot: int) -> bool:
        """Whether this outage holds the node down at ``slot``."""
        return self.start <= slot and (self.stop is None or slot < self.stop)


@dataclass(frozen=True)
class Jammer:
    """An external interferer at ``(x, y)`` radiating ``power``.

    Active in slots ``start <= slot < stop`` and, when ``period`` is
    set, only for the first ``duty`` slots of each period (a pulsed
    jammer).  While active it destroys any delivery whose receiver
    collects at least the plan's ``jam_threshold`` of jamming power,
    where the received power follows the same far-field path-loss law as
    the SINR channel: ``power / dist^alpha``.
    """

    x: float
    y: float
    power: float
    alpha: float = 4.0
    start: int = 0
    stop: int | None = None
    period: int | None = None
    duty: int = 1

    def __post_init__(self) -> None:
        require_positive("power", self.power)
        require_positive("alpha", self.alpha)
        require_int("start", self.start, minimum=0)
        _require_stop("stop", self.start, self.stop)
        if self.period is not None:
            require_int("period", self.period, minimum=1)
            require_int("duty", self.duty, minimum=1)
            if self.duty > self.period:
                raise ConfigurationError(
                    f"duty must be <= period ({self.period}), got {self.duty}"
                )

    def active(self, slot: int) -> bool:
        """Whether the jammer radiates at ``slot``."""
        if slot < self.start or (self.stop is not None and slot >= self.stop):
            return False
        if self.period is None:
            return True
        return (slot - self.start) % self.period < self.duty


@dataclass(frozen=True)
class MessageFaults:
    """I.i.d. per-delivery loss: drop with ``drop``, then corrupt with ``corrupt``.

    A corrupted message fails its checksum at the receiver and is
    discarded — algorithms never observe garbage payloads, so no
    protocol code needs to handle them — but the event is counted
    separately from a plain drop.  A drop-only plan is the i.i.d. loss
    of EXP-11.
    """

    drop: float = 0.0
    corrupt: float = 0.0

    def __post_init__(self) -> None:
        require_probability("drop", self.drop)
        require_probability("corrupt", self.corrupt)

    @property
    def empty(self) -> bool:
        """True when this component injects nothing."""
        return self.drop == 0.0 and self.corrupt == 0.0


@dataclass(frozen=True)
class SlotSkew:
    """Node ``node`` drifts out of slot alignment periodically.

    In every slot where ``(slot - phase) % period == 0`` the node's
    transmission misses the slot boundary: no receiver can decode it
    (the preamble is misaligned) but the energy is still on the air, so
    it interferes with everyone else exactly as an aligned transmission
    would.
    """

    node: int
    period: int
    phase: int = 0

    def __post_init__(self) -> None:
        require_int("node", self.node, minimum=0)
        require_int("period", self.period, minimum=1)
        require_int("phase", self.phase, minimum=0)

    def desynced(self, slot: int) -> bool:
        """Whether the node is misaligned at ``slot``."""
        return (slot - self.phase) % self.period == 0


@dataclass(frozen=True)
class WakeupSpec:
    """An adversarial wake-up pattern (generalises EXP-13's three families).

    * ``synchronous`` — everyone at slot 0.
    * ``random`` — i.i.d. uniform wake slots in ``[0, max_delay]``.
    * ``staggered`` — node ``i`` wakes at ``i * interval``.
    * ``bursts`` — waves of ``burst`` nodes every ``interval`` slots
      (``burst=1`` degenerates to ``staggered``).
    """

    pattern: str = "synchronous"
    max_delay: int = 0
    interval: int = 0
    burst: int = 1
    seed: int | None = None

    def __post_init__(self) -> None:
        require_in("pattern", self.pattern, WAKEUP_PATTERNS)
        require_int("max_delay", self.max_delay, minimum=0)
        require_int("interval", self.interval, minimum=0)
        require_int("burst", self.burst, minimum=1)
        if self.seed is not None:
            require_int("seed", self.seed)

    def schedule(self, n: int, seed: int = 0) -> WakeupSchedule:
        """Materialise the pattern for ``n`` nodes.

        ``seed`` is the fallback for ``random`` when the spec carries no
        seed of its own (the run harness passes the run seed).
        """
        require_int("n", n, minimum=0)
        if self.pattern == "synchronous":
            return WakeupSchedule.synchronous(n)
        if self.pattern == "random":
            use = self.seed if self.seed is not None else seed
            return WakeupSchedule.uniform_random(n, self.max_delay, seed=use)
        if self.pattern == "staggered":
            return WakeupSchedule.staggered(n, interval=self.interval)
        waves = [(i // self.burst) * self.interval for i in range(n)]
        return WakeupSchedule(np.asarray(waves, dtype=np.int64))


def _component_dict(value: Any) -> dict:
    """One component dataclass as a plain dict (nested, JSON-ready)."""
    return {f.name: getattr(value, f.name) for f in fields(value)}


def _build(cls: type, name: str, payload: Mapping) -> Any:
    """Construct component ``cls`` from a mapping, rejecting unknown keys."""
    if not isinstance(payload, Mapping):
        raise ConfigurationError(
            f"fault plan field {name!r} must be an object, got {payload!r}"
        )
    known = {f.name for f in fields(cls)}
    unknown = set(payload) - known
    if unknown:
        raise ConfigurationError(
            f"fault plan field {name!r} has unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(known)}"
        )
    return cls(**payload)


@dataclass(frozen=True)
class FaultPlan:
    """The composed fault model for one run (see module docstring).

    Attributes
    ----------
    outages:
        Node crash / sleep / restart windows.
    jammers:
        External interferers.
    messages:
        I.i.d. per-delivery drop and corruption probabilities.
    skews:
        Per-node periodic slot desynchronisation.
    wakeup:
        Adversarial wake-up pattern (used by the run harness when no
        explicit schedule is passed).
    jam_threshold:
        Received jamming power that destroys a delivery; ``None`` derives
        ``beta * noise`` from the wrapped channel's physical parameters
        (an explicit value is required for channels without them).
    seed:
        Seed of the fault layer's private RNG; ``None`` falls back to
        the run seed.  Fault randomness never touches node RNG streams.
    """

    outages: tuple[NodeOutage, ...] = ()
    jammers: tuple[Jammer, ...] = ()
    messages: MessageFaults = field(default_factory=MessageFaults)
    skews: tuple[SlotSkew, ...] = ()
    wakeup: WakeupSpec | None = None
    jam_threshold: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "outages", tuple(self.outages))
        object.__setattr__(self, "jammers", tuple(self.jammers))
        object.__setattr__(self, "skews", tuple(self.skews))
        for outage in self.outages:
            if not isinstance(outage, NodeOutage):
                raise ConfigurationError(
                    f"outages must be NodeOutage instances, got {outage!r}"
                )
        for jammer in self.jammers:
            if not isinstance(jammer, Jammer):
                raise ConfigurationError(
                    f"jammers must be Jammer instances, got {jammer!r}"
                )
        if not isinstance(self.messages, MessageFaults):
            raise ConfigurationError(
                f"messages must be a MessageFaults, got {self.messages!r}"
            )
        for skew in self.skews:
            if not isinstance(skew, SlotSkew):
                raise ConfigurationError(
                    f"skews must be SlotSkew instances, got {skew!r}"
                )
        if self.wakeup is not None and not isinstance(self.wakeup, WakeupSpec):
            raise ConfigurationError(
                f"wakeup must be a WakeupSpec, got {self.wakeup!r}"
            )
        if self.jam_threshold is not None:
            require_positive("jam_threshold", self.jam_threshold)
        if self.seed is not None:
            require_int("seed", self.seed)

    # -- classification ----------------------------------------------------

    @property
    def has_channel_faults(self) -> bool:
        """Whether applying the plan can alter channel resolution at all."""
        return bool(
            self.outages or self.jammers or self.skews
        ) or not self.messages.empty

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing whatsoever."""
        return not self.has_channel_faults and self.wakeup is None

    def max_node(self) -> int:
        """Largest node id the plan references (-1 when none)."""
        ids = [o.node for o in self.outages] + [s.node for s in self.skews]
        return max(ids) if ids else -1

    # -- composition -------------------------------------------------------

    def merge(self, other: "FaultPlan") -> "FaultPlan":
        """This plan with ``other`` layered on top.

        Lists concatenate; ``other``'s message probabilities, wake-up
        spec, jam threshold and seed override this plan's whenever they
        are set (non-default).
        """
        messages = other.messages if not other.messages.empty else self.messages
        return FaultPlan(
            outages=self.outages + other.outages,
            jammers=self.jammers + other.jammers,
            messages=messages,
            skews=self.skews + other.skews,
            wakeup=other.wakeup if other.wakeup is not None else self.wakeup,
            jam_threshold=(
                other.jam_threshold
                if other.jam_threshold is not None
                else self.jam_threshold
            ),
            seed=other.seed if other.seed is not None else self.seed,
        )

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """The canonical JSON-ready form (always carries the schema).

        Deterministic for a given plan, so it can participate in the
        orchestration config hash and round-trips through
        :meth:`from_dict` unchanged.
        """
        return {
            "schema": FAULT_PLAN_SCHEMA,
            "outages": [_component_dict(o) for o in self.outages],
            "jammers": [_component_dict(j) for j in self.jammers],
            "messages": _component_dict(self.messages),
            "skews": [_component_dict(s) for s in self.skews],
            "wakeup": (
                _component_dict(self.wakeup) if self.wakeup is not None else None
            ),
            "jam_threshold": self.jam_threshold,
            "seed": self.seed,
        }

    @classmethod
    def coerce(cls, value: "FaultPlan | Mapping") -> "FaultPlan":
        """``value`` as a plan: pass plans through, validate mappings.

        The orchestration layer ships plans to workers as canonical
        dicts (unit kwargs must pickle and hash); experiment code calls
        this to accept either form.
        """
        if isinstance(value, FaultPlan):
            return value
        return cls.from_dict(value)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultPlan":
        """Validate and build a plan from :meth:`to_dict`-shaped data.

        Raises :class:`~repro.errors.ConfigurationError` on unknown keys,
        a wrong schema, or any invalid component field — every path a
        hand-written ``plan.json`` can get wrong.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"a fault plan must be a JSON object, got {payload!r}"
            )
        payload = dict(payload)
        schema = payload.pop("schema", FAULT_PLAN_SCHEMA)
        if schema != FAULT_PLAN_SCHEMA:
            raise ConfigurationError(
                f"fault plan schema {schema!r} is not {FAULT_PLAN_SCHEMA!r}"
            )
        known = {
            "outages", "jammers", "messages", "skews", "wakeup",
            "jam_threshold", "seed",
        }
        unknown = set(payload) - known
        if unknown:
            raise ConfigurationError(
                f"fault plan has unknown keys {sorted(unknown)}; "
                f"allowed: {sorted(known | {'schema'})}"
            )

        def sequence(name: str) -> list:
            value = payload.get(name, ())
            if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
                raise ConfigurationError(
                    f"fault plan field {name!r} must be a list, got {value!r}"
                )
            return list(value)

        messages = payload.get("messages")
        wakeup = payload.get("wakeup")
        return cls(
            outages=tuple(
                _build(NodeOutage, "outages", o) for o in sequence("outages")
            ),
            jammers=tuple(
                _build(Jammer, "jammers", j) for j in sequence("jammers")
            ),
            messages=(
                _build(MessageFaults, "messages", messages)
                if messages is not None
                else MessageFaults()
            ),
            skews=tuple(
                _build(SlotSkew, "skews", s) for s in sequence("skews")
            ),
            wakeup=(
                _build(WakeupSpec, "wakeup", wakeup)
                if wakeup is not None
                else None
            ),
            jam_threshold=payload.get("jam_threshold"),
            seed=payload.get("seed"),
        )

    def fallback_threshold(self, params: Any) -> float:
        """The effective jam threshold given a channel's physical params.

        Explicit :attr:`jam_threshold` wins; otherwise ``beta * noise``
        (the smallest interference that alone denies a marginal link).
        """
        if self.jam_threshold is not None:
            return self.jam_threshold
        if params is None:
            raise ConfigurationError(
                "the fault plan has jammers but no jam_threshold, and the "
                "wrapped channel has no physical params to derive one from; "
                "set jam_threshold explicitly"
            )
        return float(params.beta) * float(params.noise)


def load_fault_plan(path: str | pathlib.Path) -> FaultPlan:
    """Read and validate a ``plan.json`` fault plan file.

    The file must be a single JSON object carrying
    ``"schema": "repro.faults/1"``.  All failure modes — unreadable
    file, invalid JSON, wrong schema, bad fields — surface as
    :class:`~repro.errors.ConfigurationError` naming the file.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as failure:
        raise ConfigurationError(
            f"cannot read fault plan {path}: {failure}"
        ) from failure
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as failure:
        raise ConfigurationError(
            f"{path}: line {failure.lineno} is not valid JSON ({failure.msg}) "
            "— not a fault plan file"
        ) from failure
    if not isinstance(payload, Mapping) or "schema" not in payload:
        raise ConfigurationError(
            f"{path} is not a fault plan: expected a JSON object with "
            f'"schema": "{FAULT_PLAN_SCHEMA}"'
        )
    try:
        return FaultPlan.from_dict(payload)
    except ConfigurationError as failure:
        raise ConfigurationError(f"{path}: {failure}") from failure
