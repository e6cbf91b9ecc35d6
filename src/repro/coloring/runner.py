"""The one coloring run harness, and MW's adapter over it.

:func:`run_protocol` is the only code that wires and runs an
:class:`~repro.simulation.event_sim.EventSimulator` for a coloring run:
channel, fault wrapping, wake-up schedule, telemetry, decision listeners
(the live Theorem 1 audit and the decision metrics), the engine itself
and color extraction.  Every SINR protocol goes through it — the MW
coloring via :func:`run_mw_coloring` (the entry point of the examples,
the CLI and every experiment), and the zoo's other protocols via
:func:`repro.algorithms.harness.run_event_protocol` — so head-to-head
rows compare algorithms run under the identical environment.

Every run carries the live Theorem 1 audit.  The MW adapter only builds
the Figure 1-3 node machines from the deployment's constants and maps
the outcome to an :class:`~repro.coloring.result.MWColoringResult`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .._validation import require_in, require_int
from ..errors import ConfigurationError
from ..geometry.deployment import Deployment
from ..geometry.density import phi_empirical
from ..graphs.coloring import Coloring
from ..graphs.udg import UnitDiskGraph
from ..faults.channel import FaultyChannel
from ..faults.plan import FaultPlan
from ..invariants import IndependenceAuditor, IndependenceViolation
from ..sinr.channel import Channel, CollisionFreeChannel, GraphChannel, SINRChannel
from ..sinr.params import PhysicalParams
from ..simulation.event_sim import EventNode, EventSimulator, RunStats
from ..simulation.scheduler import WakeupSchedule
from ..simulation.trace import SlotObserver, TraceRecorder
from ..telemetry import Telemetry
from .constants import AlgorithmConstants
from .mw_node import MWColoringNode, MWSharedConfig
from .result import MWColoringResult

__all__ = [
    "ProtocolRun",
    "build_constants",
    "default_max_slots",
    "make_channel",
    "run_mw_coloring",
    "run_protocol",
]

#: ``listener(slot, node, color)``, fired the moment a node decides.
DecisionListener = Callable[[int, int, int], None]


def default_max_slots(constants: AlgorithmConstants) -> int:
    """A generous slot budget for one run with the given constants.

    Mirrors the structure of the Theorem 2 time bound: each of the at most
    ``phi(2R_T) + 2`` visited ``A`` states costs a listening phase plus a
    worst-case counter climb from ``chi``'s deepest restart (Lemma 5), the
    ``R`` state costs the leader draining up to ``Delta`` requests, and the
    whole budget is tripled for slack.
    """
    per_state = (
        constants.listen_slots
        + constants.counter_threshold
        + 2 * constants.reset_window(1) * (constants.phi_2rt + 1)
    )
    request_phase = constants.delta * constants.serve_slots + constants.listen_slots
    total = (constants.phi_2rt + 2) * per_state + request_phase
    return 3 * total + 1000


def build_constants(
    preset: str,
    graph: UnitDiskGraph,
    params: PhysicalParams,
    n: int,
) -> AlgorithmConstants:
    """Constants for ``preset`` in {"practical", "theoretical"} on this graph.

    The practical preset measures the realised ``phi(2R_T)`` of the
    deployment (the state-spacing constant must dominate the true number of
    same-cluster-color competitors for the palette argument of Theorem 2).
    """
    require_in("preset", preset, ("practical", "theoretical"))
    delta = max(1, graph.max_degree)
    if preset == "theoretical":
        return AlgorithmConstants.theoretical(params, delta, n)
    phi_2rt = max(
        2, phi_empirical(graph.positions, 2.0 * graph.radius, graph.radius)
    )
    return AlgorithmConstants.practical(delta, n, phi_2rt=phi_2rt)


def make_channel(
    kind: str,
    positions: np.ndarray,
    params: PhysicalParams,
    resolver: str = "dense",
) -> Channel:
    """Channel factory: ``"sinr"``, ``"graph"`` or ``"collision_free"``.

    ``resolver`` selects the SINR interference backend (``"dense"`` or the
    grid-bucketed ``"sparse"``, see ``docs/SCALING.md``); the non-SINR
    channels have no interference matrix, so anything but the default is
    rejected for them.
    """
    require_in("channel", kind, ("sinr", "graph", "collision_free"))
    require_in("resolver", resolver, ("dense", "sparse"))
    if kind == "sinr":
        return SINRChannel(positions, params, resolver=resolver)
    if resolver != "dense":
        raise ConfigurationError(
            f"resolver='sparse' only applies to the SINR channel, not {kind!r}"
        )
    if kind == "graph":
        return GraphChannel(positions, params.r_t)
    return CollisionFreeChannel(positions, params.r_t)


@dataclass(frozen=True)
class ProtocolRun:
    """What :func:`run_protocol` returns, before any per-algorithm mapping.

    ``colors`` and ``decision_slots`` hold ``-1`` for nodes that never
    decided; ``fault_events`` carries the fault layer's injection
    counters when the run had a plan (None for clean runs);
    ``audit_violations`` holds the live Theorem 1 audit's findings.
    """

    colors: np.ndarray
    decision_slots: np.ndarray
    stats: RunStats
    fault_events: dict[str, int] | None
    audit_violations: tuple[IndependenceViolation, ...]


def run_protocol(
    algorithm: str,
    graph: UnitDiskGraph,
    params: PhysicalParams,
    build_nodes: Callable[[tuple[DecisionListener, ...]], Sequence[EventNode]],
    max_slots: int,
    *,
    seed: int = 0,
    channel: str = "sinr",
    resolver: str = "dense",
    faults: FaultPlan | None = None,
    schedule: WakeupSchedule | None = None,
    observers: Sequence[SlotObserver] = (),
    decision_listeners: Sequence[DecisionListener] = (),
    telemetry: Telemetry | None = None,
) -> ProtocolRun:
    """Run one SINR protocol's node machines on ``graph`` under the event engine.

    The wiring, in order: the ``channel`` (with ``resolver``); the
    :class:`~repro.faults.FaultyChannel` wrap when ``faults`` is given
    (even an empty plan — wrapping is bit-neutral); the wake-up
    ``schedule``, else the plan's wake-up spec, else synchronous wake-up;
    telemetry (``meta["algorithm"]`` set to ``algorithm`` unless the
    caller named it, channel metrics attached); the decision listeners —
    the caller's ``decision_listeners`` first, then the run's own
    :class:`~repro.invariants.IndependenceAuditor` (the live Theorem 1
    audit, radius ``graph.radius``), then telemetry's decision metrics —
    handed to ``build_nodes``, which returns one node machine
    per node exposing ``color`` / ``decision_slot`` (``None`` until
    decided); then the engine runs for at most ``max_slots`` slots with
    ``observers`` attached.  ``seed`` drives the node coins, the fault
    RNG and the plan's wake-up draw.  Telemetry never alters the run.
    """
    require_int("max_slots", max_slots, minimum=1)
    n = graph.n
    channel_obj = make_channel(channel, graph.positions, params, resolver=resolver)
    fault_channel = None
    if faults is not None:
        fault_channel = FaultyChannel(channel_obj, faults, seed=seed)
        channel_obj = fault_channel

    if schedule is None:
        if faults is not None and faults.wakeup is not None:
            schedule = faults.wakeup.schedule(n, seed)
        else:
            schedule = WakeupSchedule.synchronous(n)

    auditor = IndependenceAuditor(positions=graph.positions, radius=graph.radius)
    listeners = [*decision_listeners, auditor.on_decision]
    if telemetry is not None:
        telemetry.meta.setdefault("algorithm", algorithm)
        telemetry.attach_channel(channel_obj)
        if telemetry.metrics.enabled:
            decisions = telemetry.metrics.counter("coloring.decisions")
            decision_slot = telemetry.metrics.histogram("coloring.decision_slot")
            max_color = telemetry.metrics.gauge("coloring.max_color")

            def observe_decision(slot: int, node: int, color: int) -> None:
                decisions.inc()
                decision_slot.observe(slot)
                max_color.set_max(color)

            listeners.append(observe_decision)
    nodes = list(build_nodes(tuple(listeners)))

    simulator = EventSimulator(
        channel=channel_obj,
        nodes=nodes,
        schedule=schedule,
        seed=seed,
        observers=list(observers),
        metrics=telemetry.metrics if telemetry is not None else None,
        profiler=telemetry.profiler if telemetry is not None else None,
    )
    stats = simulator.run(max_slots)

    colors = np.asarray(
        [
            node.color if getattr(node, "color", None) is not None else -1
            for node in nodes
        ],
        dtype=np.int64,
    )
    decision_slots = np.asarray(
        [
            node.decision_slot
            if getattr(node, "decision_slot", None) is not None
            else -1
            for node in nodes
        ],
        dtype=np.int64,
    )
    return ProtocolRun(
        colors=colors,
        decision_slots=decision_slots,
        stats=stats,
        fault_events=(
            fault_channel.events.as_dict() if fault_channel is not None else None
        ),
        audit_violations=tuple(auditor.violations),
    )


def run_mw_coloring(
    deployment: Deployment | np.ndarray,
    params: PhysicalParams | None = None,
    *,
    constants: AlgorithmConstants | None = None,
    preset: str = "practical",
    seed: int = 0,
    schedule: WakeupSchedule | None = None,
    channel: str = "sinr",
    max_slots: int | None = None,
    trace: bool = False,
    observers: Sequence[SlotObserver] = (),
    decision_listeners: Sequence[DecisionListener] = (),
    resolver: str = "dense",
    telemetry: Telemetry | None = None,
    faults: FaultPlan | None = None,
) -> MWColoringResult:
    """Run the MW coloring algorithm end to end.

    Parameters
    ----------
    deployment:
        Node positions (a :class:`Deployment` or a ``(n, 2)`` array).
    params:
        Physical constants; defaults to the library defaults normalised to
        ``R_T = 1`` so deployment coordinates read in transmission-range
        units.
    constants:
        Explicit algorithm constants; when omitted they are derived from
        ``preset`` ("practical" measures the deployment, "theoretical" uses
        the paper-exact values — expect an astronomically long run).
    seed:
        Root seed for all node coins (and nothing else).
    schedule:
        Wake-up schedule; defaults to synchronous wake-up at slot 0.
    channel:
        ``"sinr"`` (the paper's model), ``"graph"`` (the original MW model)
        or ``"collision_free"``.
    max_slots:
        Hard slot budget; defaults to :func:`default_max_slots`.
    trace:
        Record per-node state-transition events on the result.
    observers:
        End-of-slot observers (called on active slots).
    decision_listeners:
        Callables ``(slot, node, color)`` fired at every color decision,
        before the run's own :class:`~repro.invariants.IndependenceAuditor`.
    resolver:
        SINR interference backend: ``"dense"`` (exact, default) or
        ``"sparse"`` (grid-bucketed near field + certified far-field
        bound, for large deployments — see ``docs/SCALING.md``).  Only
        meaningful when ``channel`` is ``"sinr"``.
    telemetry:
        A :class:`~repro.telemetry.Telemetry` bundle.  When given, the
        channel and simulator emit metrics into it, the slot profiler is
        attached, tracing is forced on if ``telemetry.trace``, and —
        if ``telemetry.out`` is set — the run is exported to JSONL
        before returning (summarise it with ``repro report``).
        Telemetry never alters the run: same seed, same result.
    faults:
        A :class:`~repro.faults.FaultPlan` to inject.  The channel is
        wrapped in a :class:`~repro.faults.FaultyChannel` (even for an
        empty plan — wrapping is bit-neutral), the plan's wake-up spec
        supplies the schedule when no explicit ``schedule`` is passed,
        and ``result.fault_events`` reports the injection counters.
        Invariant violations under faults are recorded, never raised.

    Returns
    -------
    MWColoringResult
        ``result.stats.completed`` says whether every node decided within
        the budget; ``result.audit_violations`` holds the live Theorem 1
        audit's findings (empty when the run upheld the invariant).
    """
    if params is None:
        params = PhysicalParams().with_r_t(1.0)
    positions = (
        deployment.positions if isinstance(deployment, Deployment) else deployment
    )
    graph = UnitDiskGraph(positions, params.r_t)
    n = graph.n
    if n == 0:
        raise ConfigurationError("cannot color an empty deployment")
    if constants is None:
        constants = build_constants(preset, graph, params, n)
    if constants.n != n:
        raise ConfigurationError(
            f"constants tuned for n={constants.n} but deployment has n={n}"
        )
    if telemetry is not None:
        trace = trace or telemetry.trace
    recorder = TraceRecorder(enabled=trace)

    def build_nodes(
        listeners: tuple[DecisionListener, ...],
    ) -> list[MWColoringNode]:
        shared = MWSharedConfig(
            constants=constants,
            trace=recorder if trace else None,
            decision_listeners=listeners,
        )
        return [MWColoringNode(node_id=i, config=shared) for i in range(n)]

    outcome = run_protocol(
        "mw",
        graph,
        params,
        build_nodes,
        max_slots if max_slots is not None else default_max_slots(constants),
        seed=seed,
        channel=channel,
        resolver=resolver,
        faults=faults,
        schedule=schedule,
        observers=observers,
        decision_listeners=decision_listeners,
        telemetry=telemetry,
    )
    result = MWColoringResult(
        graph=graph,
        coloring=Coloring.clamped(outcome.colors),
        leaders=np.flatnonzero(outcome.colors == 0),
        decision_slots=outcome.decision_slots,
        stats=outcome.stats,
        constants=constants,
        trace=recorder,
        fault_events=outcome.fault_events,
        audit_violations=outcome.audit_violations,
    )
    if telemetry is not None and telemetry.out is not None:
        telemetry.export_coloring(result)
    return result


def slots_bound_estimate(constants: AlgorithmConstants) -> int:
    """Theorem 2's bound shape evaluated with the run's own constants.

    ``O(phi(2R_T)^3 * phi(R_T+R_I) * Delta ln n)`` reduces, once the
    coefficients are folded into gamma/sigma/eta, to "number of visited
    states times per-state cost"; exposed as the reference column of the
    time-scaling experiment (EXP-2).
    """
    per_state = constants.listen_slots + constants.counter_threshold
    return math.ceil((constants.phi_2rt + 1) * per_state)
