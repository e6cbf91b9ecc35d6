"""Per-slot reception resolution under three interference semantics.

A :class:`Channel` answers one question per time slot: given the set of
nodes transmitting in this slot (each with a payload), which nodes receive
which message?  All protocol logic lives above this interface, so swapping
``SINRChannel`` for ``GraphChannel`` reruns the *same* algorithm under the
graph-based model of the original MW analysis — exactly the comparison the
paper is about.

Common semantics shared by all channels:

* Radios are half-duplex by default: a node that transmits in a slot cannot
  receive in that slot.
* A receiver decodes at most one message per slot (it has one radio).  Under
  the paper's assumption ``beta >= 1`` at most one sender can satisfy the
  SINR predicate anyway; for completeness the SINR channel always selects
  the strongest decodable in-range sender.
* The paper's decoding-margin assumption applies: a message is only received
  from senders within the transmission range ``R_T``.

Every channel implements one payload-free hook,
``_reception(senders) -> (receivers, columns)``: the receiving node ids,
ascending, and for each the column of ``senders`` it decoded.
:meth:`Channel.resolve` does the rest once for all channels — sender
validation, metrics, and the result, a :class:`Deliveries` sequence
backed by those arrays.  The dense channels answer the hook through the
shared :class:`~repro.sinr.engine.ResolutionEngine`: squared distances
are computed once per slot and the reception masks are derived from
them in a single vectorised pass.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Iterator, Sequence, overload

import numpy as np

from .._validation import require_in
from ..errors import ConfigurationError
from ..geometry.grid_index import unit_disk_csr
from ..geometry.point import as_positions
from .engine import ResolutionEngine, apply_power_law
from .params import PhysicalParams
from .sparse import SparseResolutionEngine

__all__ = [
    "Channel",
    "CollisionFreeChannel",
    "Deliveries",
    "Delivery",
    "GraphChannel",
    "ProtocolChannel",
    "SINRChannel",
    "Transmission",
]


@dataclass(frozen=True)
class Transmission:
    """One node's transmission in a slot: ``sender`` broadcasts ``payload``."""

    sender: int
    payload: Any


@dataclass(frozen=True)
class Delivery:
    """A successful reception: ``receiver`` decoded ``payload`` from ``sender``."""

    receiver: int
    sender: int
    payload: Any


def _frozen(
    receivers: np.ndarray, columns: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A reception marked read-only: the empty answer is shared across
    slots, so no caller may edit it."""
    receivers.setflags(write=False)
    columns.setflags(write=False)
    return receivers, columns


#: ``_reception``'s answer when nobody receives (or nobody sent).
_NO_RECEPTION = _frozen(np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))


class Deliveries(Sequence[Delivery]):
    """One slot's deliveries, held as arrays.

    ``receivers[d]`` decoded the transmission in column ``columns[d]``:
    the sender ``senders[columns[d]]`` with payload
    ``payloads[columns[d]]``.  Receivers are ascending.  The sequence
    builds its :class:`Delivery` objects (with plain ``int`` ids) on
    first element access, so code that reads only the arrays or the
    length never pays for them.  It compares equal to a ``list`` of the
    same deliveries in the same order.
    """

    __slots__ = ("receivers", "columns", "senders", "payloads", "_items")

    def __init__(
        self,
        receivers: np.ndarray,
        columns: np.ndarray,
        senders: np.ndarray,
        payloads: Sequence[Any],
    ) -> None:
        self.receivers = receivers
        self.columns = columns
        self.senders = senders
        self.payloads = payloads
        self._items: list[Delivery] | None = None

    def _list(self) -> list[Delivery]:
        if self._items is None:
            sender_ids = self.senders.tolist()
            payloads = self.payloads
            self._items = [
                Delivery(receiver, sender_ids[column], payloads[column])
                for receiver, column in zip(
                    self.receivers.tolist(), self.columns.tolist()
                )
            ]
        return self._items

    def __len__(self) -> int:
        return len(self.receivers)

    @overload
    def __getitem__(self, index: int) -> Delivery: ...

    @overload
    def __getitem__(self, index: slice) -> list[Delivery]: ...

    def __getitem__(self, index: int | slice) -> Delivery | list[Delivery]:
        return self._list()[index]

    def __iter__(self) -> Iterator[Delivery]:
        return iter(self._list())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Deliveries, list)):
            return self._list() == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Deliveries({self._list()!r})"


class Channel(ABC):
    """Interference semantics: resolves simultaneous transmissions to deliveries."""

    def __init__(self, positions: np.ndarray, half_duplex: bool = True) -> None:
        self._positions = as_positions(positions)
        self._half_duplex = bool(half_duplex)
        self._engine: ResolutionEngine | None = None
        # Telemetry handles; None until attach_metrics binds them, and
        # resolve() then takes the uninstrumented early return.
        self._m_resolve_seconds = None
        self._m_resolve_calls = None
        self._m_transmissions = None
        self._m_deliveries = None

    @property
    def positions(self) -> np.ndarray:
        """Node coordinates, shape ``(n, 2)``."""
        return self._positions

    @property
    def n(self) -> int:
        """Number of nodes on the channel."""
        return len(self._positions)

    @property
    def half_duplex(self) -> bool:
        """Whether transmitting nodes are barred from receiving in the same slot."""
        return self._half_duplex

    @property
    def engine(self) -> ResolutionEngine | None:
        """The channel's resolution engine (None for channels without one)."""
        return self._engine

    @property
    @abstractmethod
    def reach(self) -> float:
        """Nominal single-hop range of the channel (the paper's ``R_T``)."""

    def attach_metrics(self, metrics) -> None:
        """Emit resolve-path telemetry into ``metrics`` from now on.

        Binds the ``channel.*`` instruments (``resolve_seconds``
        histogram, call/transmission/delivery counters) of a
        :class:`~repro.telemetry.registry.MetricsRegistry` and forwards
        to the channel's :class:`~repro.sinr.engine.ResolutionEngine`
        if it has one.  A disabled registry is ignored, so the
        uninstrumented fast path stays a single ``None`` check.
        """
        if not getattr(metrics, "enabled", True):
            return
        self._m_resolve_seconds = metrics.histogram("channel.resolve_seconds")
        self._m_resolve_calls = metrics.counter("channel.resolve_calls")
        self._m_transmissions = metrics.counter("channel.transmissions")
        self._m_deliveries = metrics.counter("channel.deliveries")
        if self._engine is not None:
            self._engine.attach_metrics(metrics)

    def resolve(
        self,
        senders: Sequence[Transmission] | np.ndarray,
        payloads: Sequence[Any] | None = None,
    ) -> Deliveries:
        """Deliveries produced by one slot's simultaneous transmissions.

        Called as ``resolve(transmissions)`` with a sequence of
        :class:`Transmission`, or as ``resolve(senders, payloads)`` with
        an index array and the payloads in the same order (the event
        engine's form, which builds no ``Transmission`` objects).
        Validates the sender set, asks the channel's ``_reception`` who
        decoded whom, and records wall-time and throughput metrics when
        (and only when) :meth:`attach_metrics` was called.
        """
        if payloads is None:
            transmissions = senders
            senders = [t.sender for t in transmissions]
            payloads = [t.payload for t in transmissions]
        # Cast before validating, so ids that coincide as intp (3.2 and
        # 3.7, say) are caught as a duplicate.
        senders = np.asarray(senders, dtype=np.intp)
        if self._m_resolve_seconds is None:
            return self._deliveries(senders, payloads)
        start = perf_counter()  # repro: noqa[DET001] metrics timing; never a decision input
        deliveries = self._deliveries(senders, payloads)
        self._m_resolve_seconds.observe(perf_counter() - start)  # repro: noqa[DET001] metrics timing; never a decision input
        self._m_resolve_calls.inc()
        self._m_transmissions.inc(len(senders))
        self._m_deliveries.inc(len(deliveries))
        return deliveries

    def _deliveries(
        self, senders: np.ndarray, payloads: Sequence[Any]
    ) -> Deliveries:
        """Validate ``senders`` and wrap ``_reception``'s answer.

        O(k) Python work: the range check and a ``set`` for duplicates.
        """
        sender_list = senders.tolist()
        k = len(sender_list)
        if len(payloads) != k:
            raise ConfigurationError(
                f"{k} senders but {len(payloads)} payloads"
            )
        if k:
            if min(sender_list) < 0 or max(sender_list) >= self.n:
                raise ConfigurationError(
                    f"transmission sender out of range 0..{self.n - 1}"
                )
            if len(set(sender_list)) != k:
                raise ConfigurationError(
                    "a node cannot transmit twice in the same slot"
                )
        receivers, columns = self._reception(senders)
        return Deliveries(receivers, columns, senders, payloads)

    @abstractmethod
    def _reception(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Who decodes whom when ``senders`` transmit together.

        ``senders`` is a validated index array (possibly empty).  Returns
        ``(receivers, columns)``: the receiving node ids, ascending, and
        for each the column of ``senders`` it decoded.  Payload-free, so
        channels never see a message.
        """


class SINRChannel(Channel):
    """The paper's physical model (Section II).

    A receiver ``u`` decodes sender ``v`` iff

        (P / delta(u,v)^alpha) / (N + sum_{w != v} P / delta(u,w)^alpha) >= beta

    and additionally ``delta(u, v) <= R_T`` (the decoding-margin assumption).
    Interference is *global*: every simultaneous transmitter in the network
    contributes, which is exactly what distinguishes this model from the
    graph-based one.

    ``resolver`` selects the interference backend.  ``"dense"`` (default)
    is the exact ``(n, k)`` matrix engine above, bit-identical to every
    prior release.  ``"sparse"`` is the grid-bucketed
    :class:`~repro.sinr.sparse.SparseResolutionEngine`: exact gain terms
    inside the ``R_I`` disc plus a certified conservative bound for the
    far field, O(n * deg) instead of O(n^2) — its delivery set is a
    subset of the dense one (see ``docs/SCALING.md``).
    """

    def __init__(
        self,
        positions: np.ndarray,
        params: PhysicalParams,
        half_duplex: bool = True,
        resolver: str = "dense",
    ) -> None:
        super().__init__(positions, half_duplex)
        require_in("resolver", resolver, ("dense", "sparse"))
        self._params = params
        self._resolver = resolver
        self._sparse: SparseResolutionEngine | None = None
        if resolver == "sparse":
            self._sparse = SparseResolutionEngine(
                self._positions, params, half_duplex=half_duplex
            )
        self._engine = ResolutionEngine(self._positions)
        floor = self._near_field_floor()
        self._floor_sq = floor * floor
        self._r_t_sq = params.r_t * params.r_t
        self._rows = np.arange(self.n)

    @property
    def params(self) -> PhysicalParams:
        """Physical constants the channel evaluates the SINR predicate with."""
        return self._params

    @property
    def resolver(self) -> str:
        """Active interference backend: ``"dense"`` or ``"sparse"``."""
        return self._resolver

    @property
    def sparse_engine(self) -> SparseResolutionEngine | None:
        """The sparse backend (``None`` under the dense resolver)."""
        return self._sparse

    @property
    def reach(self) -> float:
        """Transmission range ``R_T``."""
        return self._params.r_t

    def _near_field_floor(self) -> float:
        """Distance floor for coincident nodes.

        The far-field path-loss law diverges at distance 0; clamping to a
        tiny fraction of ``R_T`` keeps the math finite while preserving the
        physics: a single coincident sender decodes with enormous SINR, two
        coincident senders jam each other (ratio ~1 < beta).
        """
        return self._params.r_t * 1e-6

    def _reception(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if senders.size == 0:
            return _NO_RECEPTION
        if self._sparse is not None:
            return _selected(*self._sparse.reception(senders))
        params = self._params
        dist_sq = self._engine.distance_sq(senders)
        # Received powers P / max(dist, floor)^alpha; a sender's own
        # column entry is 0 (its signal is no interference to itself).
        power = np.maximum(dist_sq, self._floor_sq)
        apply_power_law(power, params.power, params.alpha)
        power[senders, np.arange(senders.size)] = 0.0
        total = power.sum(axis=1)

        # Strongest sender per receiver; with beta >= 1 it is the only
        # possibly-decodable one.
        best_col = power.argmax(axis=1)
        rows = self._rows
        best_power = power[rows, best_col]
        interference = total - best_power

        decodable = best_power >= params.beta * (params.noise + interference)
        in_range = dist_sq[rows, best_col] <= self._r_t_sq
        receiving = decodable & in_range & (best_power > 0)
        if self._half_duplex:
            receiving[senders] = False
        return _selected(receiving, best_col)


class GraphChannel(Channel):
    """The graph-based model of the original MW analysis.

    A node hears a message iff *exactly one* of its neighbours (nodes within
    ``radius``) transmits in the slot — any second transmitting neighbour
    destroys reception, and non-neighbours never interfere.  This is the
    "simple graph based model" the paper contrasts against.

    Neighbourhoods are built once by
    :func:`~repro.geometry.grid_index.unit_disk_csr`, the function that
    builds :class:`~repro.graphs.UnitDiskGraph` too, so the channel
    hears exactly the graph's edges.  Resolution gathers the senders' neighbour lists in one
    vectorised pass: cost scales with the senders' degrees rather than
    densely with ``n x k``.
    """

    def __init__(
        self, positions: np.ndarray, radius: float, half_duplex: bool = True
    ) -> None:
        super().__init__(positions, half_duplex)
        if radius <= 0:
            raise ConfigurationError(f"radius must be > 0, got {radius}")
        self._radius = float(radius)
        # Node u's neighbours are _adjacent[_start[u]:_start[u + 1]].
        self._start, self._adjacent = unit_disk_csr(self._positions, self._radius)

    @property
    def reach(self) -> float:
        """Connectivity radius of the underlying unit disk graph."""
        return self._radius

    def _reception(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if senders.size == 0:
            return _NO_RECEPTION
        # Gather every sender's neighbour list at once; ``heard[e]`` is a
        # node within range of the sender in column ``column[e]``.
        starts = self._start[senders]
        counts = self._start[senders + 1] - starts
        ends = np.cumsum(counts)
        edge = np.arange(int(ends[-1])) + np.repeat(starts - ends + counts, counts)
        heard = self._adjacent[edge]
        column = np.repeat(np.arange(senders.size, dtype=np.intp), counts)
        # A node hears a message iff exactly one neighbour transmits; its
        # single entry in ``heard`` names that sender's column.
        receiving = np.bincount(heard, minlength=self.n) == 1
        if self._half_duplex:
            receiving[senders] = False
        decoded = np.empty(self.n, dtype=np.intp)
        decoded[heard] = column
        return _selected(receiving, decoded)


class ProtocolChannel(Channel):
    """The "protocol model" of interference (Wang et al., cited in Sec. I).

    A receiver ``u`` decodes its nearest in-range sender ``v`` iff no
    *other* sender lies within the guard distance ``(1 + guard) * radius``
    of ``u``.  This sits between the graph model (guard = 0 on neighbors
    only) and SINR (additive, global): interference is still binary and
    local, but reaches beyond the communication radius.
    """

    def __init__(
        self,
        positions: np.ndarray,
        radius: float,
        guard: float = 0.5,
        half_duplex: bool = True,
    ) -> None:
        super().__init__(positions, half_duplex)
        if radius <= 0:
            raise ConfigurationError(f"radius must be > 0, got {radius}")
        if guard < 0:
            raise ConfigurationError(f"guard must be >= 0, got {guard}")
        self._radius = float(radius)
        self._guard = float(guard)
        self._engine = ResolutionEngine(self._positions)

    @property
    def reach(self) -> float:
        """Communication radius."""
        return self._radius

    @property
    def guard(self) -> float:
        """Relative guard-zone width: interference radius is ``(1+guard)*R``."""
        return self._guard

    def _reception(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(receivers, nearest column)``: one dense pass, no receiver loop."""
        if senders.size == 0:
            return _NO_RECEPTION
        masked = _self_masked(self._engine.distance_sq(senders), senders)
        nearest = np.argmin(masked, axis=1)
        rows = np.arange(self.n)
        nearest_sq = masked[rows, nearest]
        guard_radius = (1.0 + self._guard) * self._radius
        # Exactly one sender (the nearest) inside the guard zone, and
        # that sender within communication range.
        in_guard = (masked <= guard_radius * guard_radius).sum(axis=1)
        receiving = (nearest_sq <= self._radius * self._radius) & (in_guard == 1)
        if self._half_duplex:
            receiving[senders] = False
        return _selected(receiving, nearest)


class CollisionFreeChannel(Channel):
    """An oracle channel with no interference at all.

    Every non-transmitting node within ``radius`` of at least one sender
    receives the message of its *nearest* sender.  Used to unit-test node
    state machines in isolation from channel stochasticity.
    """

    def __init__(
        self,
        positions: np.ndarray,
        radius: float,
        half_duplex: bool = True,
    ) -> None:
        super().__init__(positions, half_duplex)
        if radius <= 0:
            raise ConfigurationError(f"radius must be > 0, got {radius}")
        self._radius = float(radius)
        self._engine = ResolutionEngine(self._positions)

    @property
    def reach(self) -> float:
        """Single-hop delivery range."""
        return self._radius

    def _reception(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if senders.size == 0:
            return _NO_RECEPTION
        masked = _self_masked(self._engine.distance_sq(senders), senders)
        nearest = np.argmin(masked, axis=1)
        rows = np.arange(self.n)
        receiving = masked[rows, nearest] <= self._radius * self._radius
        if self._half_duplex:
            receiving[senders] = False
        return _selected(receiving, nearest)


def _self_masked(dist_sq: np.ndarray, senders: np.ndarray) -> np.ndarray:
    """``dist_sq`` with each sender's own column set to ``inf``, in place.

    Nearest-sender channels (protocol, collision-free) must never pick a
    node as its own nearest sender.
    """
    dist_sq[senders, np.arange(senders.size)] = np.inf
    return dist_sq


def _selected(
    receiving: np.ndarray, column: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(receivers, columns)`` from a receiving mask and a per-node column,
    both read-only."""
    receivers = receiving.nonzero()[0]
    return _frozen(receivers, column[receivers])
