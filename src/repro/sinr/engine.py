"""The shared channel-resolution engine.

Every channel answers the same geometric question once per slot: given the
current sender set, what is the receiver x sender distance structure, and
which derived quantities (received powers, nearest senders, in-range masks)
follow from it?  The seed implementation recomputed the dense distance
matrix up to twice per slot and then walked receivers in Python;
:class:`ResolutionEngine` centralises that work so that

* squared distances are computed exactly **once** per (slot, sender set),
  with a BLAS-backed Gram expansion ``|u - v|^2 = |u|^2 + |v|^2 - 2 u.v``
  instead of materialising the ``(n, k, 2)`` difference tensor,
* derived per-sender-set arrays (the SINR power matrix, the self-masked
  distance matrix, full decision masks) are memoised on the
  :class:`SlotGeometry` they belong to and shared between the users that
  used to recompute them, and
* an **opt-in** LRU cache keyed on the sender set lets frame-periodic
  protocols (TDMA, SRS) that transmit the same color class every frame skip
  the geometry entirely after the first frame.

The engine knows nothing about payloads or channel semantics; channels
turn its masks into the ``(receivers, columns)`` arrays of their
``_reception`` hook (see :mod:`repro.sinr.channel`).

Cache semantics
---------------

The cache assumes node positions are immutable for the lifetime of the
engine (true for every deployment in this library) and keys entries on the
*exact byte pattern* of the sender index array — same senders in a
different order is a different entry, because column order is meaningful
to the callers.  All cached arrays are treated as frozen: callers must
never mutate what the engine hands out.  ``cache_slots=0`` (the default)
disables caching entirely; geometry is then rebuilt each call, which is
the right trade for protocols with non-repeating sender sets (ALOHA, the
MW coloring itself).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable

import numpy as np

from .._validation import require_int
from ..geometry.point import as_positions

__all__ = [
    "EngineCacheInfo",
    "ResolutionEngine",
    "SlotGeometry",
    "apply_power_law",
]


def apply_power_law(received: np.ndarray, power: float, alpha: float) -> np.ndarray:
    """Turn clamped squared distances into received powers, in place.

    ``received`` holds ``max(dist^2, floor^2)`` values and is overwritten
    with ``P / dist^alpha`` — computed as ``P / (dist^2)^(alpha/2)`` so no
    square root is ever taken.  For integer ``alpha/2`` (the default
    ``alpha = 4``) the exponentiation reduces to repeated multiplication,
    which is several times faster than the generic float power kernel.
    Shared by the dense :meth:`SlotGeometry.power` path and the sparse
    engine's COO path so the two are bit-identical term by term.
    """
    half = 0.5 * alpha
    if half == 2.0:
        # the default alpha = 4: dist^4 == (dist^2)^2, one squaring
        # in place instead of the generic float power kernel
        np.square(received, out=received)
        np.divide(power, received, out=received)
    elif half == int(half) and 1 <= int(half) <= 8:
        clamped = received.copy()
        for _ in range(int(half) - 1):
            received *= clamped
        np.divide(power, received, out=received)
    else:
        received **= -half
        received *= power
    return received


@dataclass(frozen=True)
class EngineCacheInfo:
    """A snapshot of one engine's cache behaviour.

    Attributes
    ----------
    hits:
        Geometry lookups served from the cache.
    misses:
        Geometry lookups that had to compute the distance matrix.  With
        caching disabled every lookup is a miss, so this doubles as a
        "distance computations per run" counter for tests.
    size / capacity:
        Current and maximum number of cached sender sets.
    """

    hits: int
    misses: int
    size: int
    capacity: int

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when never queried)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class SlotGeometry:
    """The dense receiver x sender geometry of one sender set.

    Owns the ``(n, k)`` squared-distance matrix and memoises arrays derived
    from it via :meth:`derive`.  Instances may be cached and shared across
    slots, so every array reachable from one is frozen by convention.
    """

    __slots__ = ("senders", "dist_sq", "_derived")

    def __init__(self, senders: np.ndarray, dist_sq: np.ndarray) -> None:
        self.senders = senders
        self.dist_sq = dist_sq
        self._derived: dict[Hashable, Any] = {}

    @property
    def k(self) -> int:
        """Number of senders (columns)."""
        return self.senders.size

    def derive(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Memoise ``compute()`` under ``key`` for the life of this geometry."""
        try:
            return self._derived[key]
        except KeyError:
            value = compute()
            self._derived[key] = value
            return value

    def masked_sq(self) -> np.ndarray:
        """Squared distances with each sender's own column set to ``inf``.

        Nearest-sender channels (protocol, collision-free) must never pick
        a node as its own nearest sender; masking once here serves both.
        """

        def compute() -> np.ndarray:
            masked = self.dist_sq.copy()
            masked[self.senders, np.arange(self.k)] = np.inf
            return masked

        return self.derive("masked_sq", compute)

    def power(self, power: float, alpha: float, floor_sq: float) -> np.ndarray:
        """Received-power matrix ``P / max(dist, floor)^alpha``, self-columns 0.

        Computed from squared distances directly — ``dist^alpha`` is
        ``(dist^2)^(alpha/2)`` — so no square root is ever taken.  For
        integer ``alpha/2`` (the default ``alpha = 4``) the exponentiation
        reduces to repeated multiplication, which is several times faster
        than the generic float power kernel.
        """

        def compute() -> np.ndarray:
            received = np.maximum(self.dist_sq, floor_sq)
            apply_power_law(received, power, alpha)
            received[self.senders, np.arange(self.k)] = 0.0
            return received

        return self.derive(("power", power, alpha, floor_sq), compute)


class ResolutionEngine:
    """Per-channel geometry core with an optional sender-set cache.

    Parameters
    ----------
    positions:
        Node coordinates, shape ``(n, 2)``; immutable for the engine's
        lifetime.
    cache_slots:
        Maximum number of sender sets whose geometry is retained (LRU).
        ``0`` disables caching.
    """

    def __init__(self, positions: np.ndarray, cache_slots: int = 0) -> None:
        self._positions = as_positions(positions)
        require_int("cache_slots", cache_slots, minimum=0)
        self._cache_slots = cache_slots
        self._cache: OrderedDict[bytes, SlotGeometry] = OrderedDict()
        self._hits = 0
        self._misses = 0
        # Metric handles; bound by attach_metrics, None = telemetry off
        # (the hot path then pays exactly one None check per lookup).
        self._m_hits = None
        self._m_misses = None
        self._m_evals = None
        # |u|^2 terms of the Gram expansion, shared by every slot.
        self._sq_norms = np.einsum(
            "ij,ij->i", self._positions, self._positions
        )

    def attach_metrics(self, metrics) -> None:
        """Emit cache and workload counters into ``metrics``.

        Binds ``engine.cache_hits``, ``engine.cache_misses`` and
        ``engine.interference_evaluations`` (receiver x sender SINR terms
        computed, i.e. ``n * k`` per distance-matrix build) from a
        :class:`~repro.telemetry.registry.MetricsRegistry`.  A disabled
        registry is ignored, keeping the unattached fast path intact.
        """
        if not getattr(metrics, "enabled", True):
            return
        self._m_hits = metrics.counter("engine.cache_hits")
        self._m_misses = metrics.counter("engine.cache_misses")
        self._m_evals = metrics.counter("engine.interference_evaluations")

    @property
    def positions(self) -> np.ndarray:
        """The engine's position array (do not mutate)."""
        return self._positions

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._positions)

    @property
    def cache_slots(self) -> int:
        """Configured cache capacity (0 = caching disabled)."""
        return self._cache_slots

    def cache_info(self) -> EngineCacheInfo:
        """Hit/miss counters and current cache occupancy."""
        return EngineCacheInfo(
            hits=self._hits,
            misses=self._misses,
            size=len(self._cache),
            capacity=self._cache_slots,
        )

    def clear_cache(self) -> None:
        """Drop every cached geometry (counters are preserved)."""
        self._cache.clear()

    def geometry(self, senders: np.ndarray) -> SlotGeometry:
        """The :class:`SlotGeometry` of ``senders`` (cached when enabled).

        ``senders`` is an index array; column ``j`` of every derived matrix
        corresponds to ``senders[j]``.  Order is significant.
        """
        senders = np.ascontiguousarray(senders, dtype=np.intp)
        if self._cache_slots == 0:
            self._misses += 1
            if self._m_misses is not None:
                self._m_misses.inc()
            return SlotGeometry(senders, self._distance_sq(senders))
        key = senders.tobytes()
        cached = self._cache.get(key)
        if cached is not None:
            self._hits += 1
            if self._m_hits is not None:
                self._m_hits.inc()
            self._cache.move_to_end(key)
            return cached
        self._misses += 1
        if self._m_misses is not None:
            self._m_misses.inc()
        geometry = SlotGeometry(senders, self._distance_sq(senders))
        self._cache[key] = geometry
        if len(self._cache) > self._cache_slots:
            self._cache.popitem(last=False)  # repro: noqa[DET003] OrderedDict FIFO eviction is deterministic
        return geometry

    def _distance_sq(self, senders: np.ndarray) -> np.ndarray:
        """Dense ``(n, k)`` squared distances via the Gram expansion.

        One matrix product instead of an ``(n, k, 2)`` difference tensor;
        rounding can drive tiny true distances a few ulps below zero, so
        the result is clamped at 0.
        """
        selected = self._positions[senders]
        # Reuse the matmul output buffer for every step — the (n, k) matrix
        # is the only allocation this makes.
        dist_sq = self._positions @ selected.T
        dist_sq *= -2.0
        dist_sq += self._sq_norms[:, None]
        dist_sq += self._sq_norms[senders][None, :]
        np.maximum(dist_sq, 0.0, out=dist_sq)
        if self._m_evals is not None:
            self._m_evals.inc(dist_sq.size)
        return dist_sq

    def distances(self, senders: np.ndarray) -> np.ndarray:
        """Euclidean ``(n, k)`` distance matrix (uncached convenience)."""
        senders = np.ascontiguousarray(senders, dtype=np.intp)
        return np.sqrt(self._distance_sq(senders))

