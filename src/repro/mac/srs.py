"""Single-round simulation (SRS) of message-passing algorithms (Corollary 1).

The classical idea (Alon, Bar-Noy, Linial, Peleg) the paper instantiates
under SINR: simulate each round of a point-to-point algorithm by one TDMA
frame of the coloring-based MAC layer.  A *uniform* algorithm broadcasts
one payload per round, so one frame of ``V = O(Delta)`` slots delivers it
to every neighbor (Theorem 3); total cost for ``tau`` rounds is
``O(Delta * tau)`` slots on top of the ``O(Delta log n)`` coloring
construction — Corollary 1's ``O(Delta (log n + tau))``.

:func:`simulate_uniform_algorithm` runs the *actual algorithm instances*
over the simulated physical layer: per round it collects each node's
``send``, transmits it in the node's TDMA slot over the SINR channel, and
feeds the real deliveries back into ``on_receive``.  If the schedule's
coloring satisfies the Theorem 3 distance, the execution is
indistinguishable from the reference interference-free run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from .._validation import require_in, require_int
from ..errors import ScheduleError
from ..faults.channel import FaultyChannel
from ..faults.plan import FaultPlan
from ..graphs.udg import UnitDiskGraph
from ..messaging.model import GeneralAlgorithm, RoundContext, UniformAlgorithm
from ..sinr.channel import SINRChannel
from ..sinr.params import PhysicalParams
from ..telemetry import Telemetry
from .tdma import FrameTally, TDMASchedule, play_frame

__all__ = [
    "SRSReport",
    "simulate_general_algorithm",
    "simulate_uniform_algorithm",
]

#: One frame's ``(payload, owed, deliver)`` callbacks for ``play_frame``.
Frame = tuple[Callable[[int], Any], Callable[[int], Any], Callable[..., None]]


@dataclass(frozen=True)
class SRSReport:
    """Outcome of a single-round-simulation execution.

    Attributes
    ----------
    rounds:
        Message-passing rounds simulated.
    slots:
        Physical slots consumed (``rounds * frame_length``; silent slots
        inside a frame still elapse — the schedule is fixed).
    frame_length:
        The TDMA frame length ``V``.
    halted:
        Whether every algorithm instance halted.
    expected_deliveries / lost_deliveries:
        (sender, neighbor) payload deliveries owed vs not decoded.  Zero
        losses with a Theorem 3 coloring.
    outputs:
        Per-node algorithm outputs at the end.
    fault_events:
        The fault layer's injection counters when the run carried a
        :class:`~repro.faults.FaultPlan` (None for clean runs).
    """

    rounds: int
    slots: int
    frame_length: int
    halted: bool
    expected_deliveries: int
    lost_deliveries: int
    outputs: tuple[Any, ...]
    fault_events: dict[str, int] | None = None

    @property
    def exact(self) -> bool:
        """Whether the SINR execution delivered every payload (no loss)."""
        return self.lost_deliveries == 0

    @property
    def delivery_rate(self) -> float:
        """Fraction of owed (sender, neighbor) deliveries that decoded."""
        if self.expected_deliveries == 0:
            return 0.0
        return 1.0 - self.lost_deliveries / self.expected_deliveries

    def summary(self) -> dict:
        """Flat dict of the headline numbers (telemetry/report-friendly)."""
        return {
            "rounds": self.rounds,
            "slots": self.slots,
            "frame_length": self.frame_length,
            "halted": self.halted,
            "expected_deliveries": self.expected_deliveries,
            "lost_deliveries": self.lost_deliveries,
            "delivery_rate": self.delivery_rate,
        }


def _simulate(
    graph: UnitDiskGraph,
    algorithms: Sequence[UniformAlgorithm] | Sequence[GeneralAlgorithm],
    schedule: TDMASchedule,
    params: PhysicalParams,
    max_rounds: int,
    frames: Callable[[int], list[Frame]],
    telemetry: Telemetry | None = None,
    faults: FaultPlan | None = None,
    fault_seed: int = 0,
    resolver: str = "dense",
) -> SRSReport:
    """Start every instance, then play each round's ``frames(round_index)``
    until every instance halts or ``max_rounds`` rounds ran."""
    if len(algorithms) != graph.n:
        raise ScheduleError(
            f"{len(algorithms)} algorithm instances for {graph.n} nodes"
        )
    if schedule.n != graph.n:
        raise ScheduleError(
            f"schedule covers {schedule.n} nodes, graph has {graph.n}"
        )
    for node, algorithm in enumerate(algorithms):
        algorithm.on_start(
            RoundContext(
                node=node,
                neighbors=tuple(int(v) for v in graph.neighbors(node)),
                n=graph.n,
            )
        )
    channel = SINRChannel(graph.positions, params, resolver=resolver)
    fault_channel = None
    if faults is not None:
        fault_channel = FaultyChannel(channel, faults, seed=fault_seed)
        channel = fault_channel
    if telemetry is not None:
        telemetry.attach_channel(channel)
    tally = FrameTally()
    rounds = 0
    slots = 0
    for round_index in range(max_rounds):
        if all(algorithm.halted for algorithm in algorithms):
            break
        rounds += 1
        for payload, owed, deliver in frames(round_index):
            # ``slots`` is the frame's first absolute slot: fault windows
            # tick frame after frame, whether or not anyone transmits.
            play_frame(schedule, channel, payload, owed, deliver, slots, tally)
            slots += schedule.frame_length
    report = SRSReport(
        rounds=rounds,
        slots=slots,
        frame_length=schedule.frame_length,
        halted=all(algorithm.halted for algorithm in algorithms),
        expected_deliveries=tally.expected,
        lost_deliveries=tally.lost,
        outputs=tuple(algorithm.output() for algorithm in algorithms),
        fault_events=(
            fault_channel.events.as_dict() if fault_channel is not None else None
        ),
    )
    if telemetry is not None:
        telemetry.metrics.counter("srs.rounds").inc(rounds)
        telemetry.metrics.counter("srs.expected_deliveries").inc(tally.expected)
        telemetry.metrics.counter("srs.lost_deliveries").inc(tally.lost)
        if telemetry.out is not None:
            summary = report.summary()
            summary.update(
                {
                    "n": graph.n,
                    "transmissions": tally.transmissions,
                    "deliveries": tally.deliveries,
                }
            )
            telemetry.export("srs", summary=summary)
    return report


def simulate_uniform_algorithm(
    graph: UnitDiskGraph,
    algorithms: Sequence[UniformAlgorithm],
    schedule: TDMASchedule,
    params: PhysicalParams,
    max_rounds: int,
    telemetry: Telemetry | None = None,
    faults: FaultPlan | None = None,
    fault_seed: int = 0,
    resolver: str = "dense",
) -> SRSReport:
    """Run a uniform algorithm over the SINR physical layer via SRS.

    ``graph`` is the radius-``R_T`` communication graph of ``params``;
    ``schedule`` comes from a (d+1)-coloring per Theorem 3 for a lossless
    simulation.  Stops as soon as every instance halts (checked between
    frames) or after ``max_rounds`` frames.

    ``telemetry`` instruments the SINR channel (resolve timings and
    interference evaluations) and, with ``telemetry.out`` set, exports
    the run to JSONL.

    ``faults`` wraps the channel in a
    :class:`~repro.faults.FaultyChannel` (``fault_seed`` drives its RNG
    unless the plan carries a seed); delivery failures then show up as
    ``lost_deliveries`` and ``report.fault_events`` — SRS degrades
    gracefully instead of asserting Theorem 3.

    ``resolver`` selects the SINR interference backend (``"dense"`` or
    the grid-bucketed ``"sparse"`` for large deployments, see
    ``docs/SCALING.md``).
    """
    require_int("max_rounds", max_rounds, minimum=0)

    def frames(round_index: int) -> list[Frame]:
        # One frame per round: every node broadcasts its one payload, and
        # every decoder hears it.
        outgoing = [algorithm.send(round_index) for algorithm in algorithms]

        def deliver(receiver: int, sender: int, payload: Any) -> None:
            algorithms[receiver].on_receive(round_index, sender, payload)

        return [(outgoing.__getitem__, graph.neighbors, deliver)]

    return _simulate(
        graph, algorithms, schedule, params, max_rounds, frames,
        telemetry, faults, fault_seed, resolver,
    )


def simulate_general_algorithm(
    graph: UnitDiskGraph,
    algorithms: Sequence[GeneralAlgorithm],
    schedule: TDMASchedule,
    params: PhysicalParams,
    max_rounds: int,
    strategy: str = "packed",
) -> SRSReport:
    """Run a *general* algorithm (per-neighbor payloads) via SRS (Cor. 1).

    Two strategies, matching Corollary 1's two trade-offs:

    * ``"packed"`` — each node broadcasts its whole ``{neighbor: payload}``
      map in one message per round; receivers extract their entry.  One
      frame per round -> ``O(Delta * tau)`` slots with messages of size
      ``O(s * Delta * log n)`` bits.
    * ``"serial"`` — messages stay ``O(s log n)``-sized: each round runs
      up to ``max_j |outgoing_j|`` subframes; in subframe ``j`` every node
      broadcasts only its j-th (addressee, payload) pair.  Cost
      ``O(Delta^2 * tau)`` slots.

    Reporting matches :func:`simulate_uniform_algorithm`; a delivery is
    "owed" only to the addressed neighbor(s).
    """
    require_int("max_rounds", max_rounds, minimum=0)
    require_in("strategy", strategy, ("packed", "serial"))

    def frames(round_index: int) -> list[Frame]:
        outgoing = [algorithm.send_to(round_index) for algorithm in algorithms]
        for sender, plan in enumerate(outgoing):
            neighbor_set = {int(v) for v in graph.neighbors(sender)}
            bad = set(plan) - neighbor_set
            if bad:
                raise ScheduleError(
                    f"node {sender} addressed non-neighbors {sorted(bad)}"
                )
        if strategy == "packed":
            subframes = [
                {
                    sender: dict(plan)
                    for sender, plan in enumerate(outgoing)
                    if plan
                }
            ]
        else:
            items = [sorted(plan.items()) for plan in outgoing]
            depth = max(map(len, items), default=0)
            subframes = [
                {v: dict([row[j]]) for v, row in enumerate(items) if j < len(row)}
                for j in range(depth)
            ]

        def deliver(receiver: int, sender: int, payload: Any) -> None:
            # Every decoder gets the whole broadcast; only addressees take
            # their entry.
            if receiver in payload:
                algorithms[receiver].on_receive(
                    round_index, sender, payload[receiver]
                )

        # A subframe's senders are its loaded nodes, and each owes its
        # addressees.
        return [(load.get, load.__getitem__, deliver) for load in subframes]

    return _simulate(graph, algorithms, schedule, params, max_rounds, frames)
