"""The one protocol every coloring algorithm in the zoo speaks.

The arena (EXP-14), the conformance suite and the CLI address every
algorithm through three surfaces:

* identity — ``name`` (the registry key, folded into sweep config
  hashes) and ``model`` (which execution abstraction the algorithm
  lives in);
* claims — ``palette_bound(delta)``, the a-priori worst-case palette
  the algorithm promises for maximum degree ``delta`` (the run-exact
  bound, which may be tighter, travels on the result);
* execution — ``run(task)`` mapping one :class:`ColoringTask` to one
  :class:`ColoringRunResult`, and, for SINR-protocol entries that run
  through :func:`repro.algorithms.harness.run_event_protocol`,
  ``build_nodes(ctx)`` / ``slot_budget(ctx)`` exposing the per-node
  state machine and its default budget.

Results normalise every algorithm — a centralised greedy, a classical
message-passing round protocol, or a full SINR state machine — into the
same row shape, so invariants (:mod:`repro.invariants`) and the MAC
verify path (:func:`repro.invariants.verify_tdma_broadcast`) apply
uniformly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, ClassVar, Mapping, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from ..geometry.deployment import Deployment
from ..graphs.coloring import Coloring
from ..graphs.udg import UnitDiskGraph
from ..invariants import (
    IndependenceViolation,
    independence_violations,
    palette_violations,
)
from ..mac.tdma import TDMASchedule
from ..simulation.event_sim import EventNode, RunStats
from ..sinr.params import PhysicalParams
from ..telemetry import Telemetry

__all__ = [
    "ColoringAlgorithm",
    "ColoringRunResult",
    "ColoringTask",
    "ProtocolContext",
]

#: The execution abstractions an algorithm may declare.
MODELS = ("sinr-protocol", "classical", "centralised")


@dataclass(frozen=True)
class ColoringTask:
    """One arena run request: a deployment plus the run environment.

    The task is algorithm-agnostic — the arena builds *one* task per
    (deployment, seed, fault plan) and hands it to every competitor, so
    head-to-head rows compare algorithms under identical conditions.

    ``channel``/``faults``/``telemetry`` only bind for
    SINR-protocol algorithms; classical and centralised entries compute
    in interference-free abstractions (their results record that via
    ``extras``), which is exactly the modelling gap the arena exists to
    measure.
    """

    deployment: Deployment | np.ndarray
    params: PhysicalParams | None = None
    seed: int = 0
    channel: str = "sinr"
    faults: FaultPlan | None = None
    max_slots: int | None = None
    telemetry: Telemetry | None = None

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates as a plain ``(n, 2)`` array."""
        deployment = self.deployment
        if isinstance(deployment, Deployment):
            return deployment.positions
        return np.asarray(deployment, dtype=np.float64)

    def resolved_params(self) -> PhysicalParams:
        """``params``, defaulting to the library constants at ``R_T = 1``."""
        if self.params is not None:
            return self.params
        return PhysicalParams().with_r_t(1.0)

    def graph(self) -> UnitDiskGraph:
        """The radius-``R_T`` communication graph of the deployment."""
        positions = self.positions
        if len(positions) == 0:
            raise ConfigurationError("cannot color an empty deployment")
        return UnitDiskGraph(positions, self.resolved_params().r_t)


@dataclass(frozen=True)
class ProtocolContext:
    """Static knowledge handed to ``build_nodes`` of protocol entries.

    Mirrors the paper's assumption set: every node knows ``n``, the
    maximum degree ``delta`` and the shared constants derivable from
    them — but *not* the geometry (the graph is here for the harness,
    not for the nodes).
    """

    graph: UnitDiskGraph
    params: PhysicalParams
    seed: int
    decision_listeners: tuple[Callable[[int, int, int], None], ...] = ()

    @property
    def n(self) -> int:
        """Network size."""
        return self.graph.n

    @property
    def delta(self) -> int:
        """Maximum degree of the communication graph (at least 1)."""
        return max(1, self.graph.max_degree)


@dataclass(frozen=True)
class ColoringRunResult:
    """One algorithm's outcome, in the arena's common shape.

    ``colors`` uses ``-1`` for nodes that never decided;
    ``decision_slots`` likewise.  ``palette_bound`` is the *run-exact*
    bound the algorithm claims for this input (e.g. MW's
    ``(phi(2R_T)+1) * (Delta+1)`` with the measured ``phi``), which the
    conformance suite enforces via
    :func:`repro.invariants.palette_violations`.

    ``audit_violations`` carries the live Theorem-1 audit for slotted
    runs (``None`` for centralised/classical algorithms, whose colorings
    have no time axis — the static check applies instead).
    """

    algorithm: str
    graph: UnitDiskGraph
    colors: np.ndarray
    decision_slots: np.ndarray
    palette_bound: int
    completed: bool
    convergence_slots: int
    audit_violations: tuple[IndependenceViolation, ...] | None = None
    stats: RunStats | None = None
    fault_events: Mapping[str, int] | None = None
    extras: Mapping[str, Any] = field(default_factory=dict)

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.colors)

    @property
    def decided(self) -> int:
        """How many nodes decided a color."""
        return int((self.colors >= 0).sum())

    @property
    def num_colors(self) -> int:
        """Distinct colors among decided nodes."""
        decided = self.colors[self.colors >= 0]
        return int(np.unique(decided).size)

    @property
    def max_color(self) -> int:
        """Largest decided color (``-1`` when nothing decided)."""
        return int(self.colors.max(initial=-1))

    def coloring(self) -> Coloring:
        """The full coloring with undecided nodes clamped to a sentinel
        (see :meth:`repro.graphs.coloring.Coloring.clamped`)."""
        return Coloring.clamped(self.colors)

    def schedule(self) -> TDMASchedule:
        """The TDMA frame induced by the coloring (``mac/`` verify path)."""
        return TDMASchedule(self.coloring())

    @cached_property
    def _static_violations(self) -> list[IndependenceViolation]:
        """The static Theorem-1 check, run once per result (do not mutate)."""
        return independence_violations(
            self.graph.positions, self.graph.radius, self.colors
        )

    def independence_violations(self) -> list[IndependenceViolation]:
        """Theorem-1 violations: the live audit when present, else static."""
        if self.audit_violations is not None:
            return list(self.audit_violations)
        return list(self._static_violations)

    def palette_violations(self) -> list[int]:
        """Decided nodes whose color falls outside the claimed palette."""
        decided = self.colors[self.colors >= 0]
        offenders = palette_violations(decided, self.palette_bound)
        nodes = np.flatnonzero(self.colors >= 0)
        return [int(nodes[i]) for i in offenders]

    def is_proper(self) -> bool:
        """No two decided neighbors share a color (and nothing undecided)."""
        return self.completed and not self._static_violations

    @property
    def clean(self) -> bool:
        """Completed, proper, palette respected, audit silent."""
        return (
            self.completed
            and self.is_proper()
            and not self.independence_violations()
            and not self.palette_violations()
        )

    def summary(self) -> dict:
        """Flat dict of the headline numbers (one arena table row)."""
        return {
            "algorithm": self.algorithm,
            "n": self.n,
            "completed": self.completed,
            "decided": self.decided,
            "colors": self.num_colors,
            "max_color": self.max_color,
            "palette_bound": self.palette_bound,
            "convergence_slots": self.convergence_slots,
            "proper": self.is_proper(),
            "clean": self.clean,
        }

    def row(self) -> dict:
        """:meth:`summary` plus the Theorem-1 violation and fault counts."""
        row = self.summary()
        row["independence_violations"] = len(self.independence_violations())
        for key, value in sorted((self.fault_events or {}).items()):
            row[f"fault_{key}"] = int(value)
        return row


class ColoringAlgorithm(ABC):
    """Base class every zoo entry implements (see the module docstring).

    Entries are stateless singletons: the registry stores one instance
    per algorithm and every ``run`` derives all state from its task.
    """

    #: Registry key; also the ``algorithm`` axis value in arena sweeps.
    name: ClassVar[str] = ""
    #: Execution abstraction: ``"sinr-protocol"`` (slotted, interference),
    #: ``"classical"`` (message passing, no interference) or
    #: ``"centralised"`` (no communication at all).
    model: ClassVar[str] = "sinr-protocol"

    @abstractmethod
    def palette_bound(self, delta: int) -> int:
        """Worst-case palette size promised for maximum degree ``delta``."""

    @abstractmethod
    def run(self, task: ColoringTask) -> ColoringRunResult:
        """Execute the algorithm on ``task``."""

    def build_nodes(self, ctx: ProtocolContext) -> Sequence[EventNode]:
        """Per-node state machines for SINR-protocol entries.

        The returned nodes must expose ``color`` / ``decision_slot``
        attributes (``None`` until decided) and run unmodified under the
        event-driven engine (:func:`repro.algorithms.harness.run_event_protocol`).
        Entries without such machines keep the default, which says so
        loudly.
        """
        raise ConfigurationError(
            f"algorithm {self.name!r} ({self.model}) has no per-node "
            "SINR state machine"
        )

    def slot_budget(self, ctx: ProtocolContext) -> int:
        """Default slot budget for one protocol run (override per entry)."""
        raise ConfigurationError(
            f"algorithm {self.name!r} ({self.model}) has no slot budget"
        )

    def describe(self) -> dict:
        """Identity row for catalogues (docs, ``--algorithm`` listings)."""
        return {"algorithm": self.name, "model": self.model}
