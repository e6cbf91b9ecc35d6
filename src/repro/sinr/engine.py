"""The shared dense channel-resolution engine.

Every dense channel answers the same geometric question once per slot:
given the current sender set, what are the receiver x sender squared
distances?  The seed implementation recomputed the dense distance matrix
up to twice per slot and then walked receivers in Python;
:class:`ResolutionEngine` computes it exactly **once** per slot, with a
BLAS-backed Gram expansion ``|u - v|^2 = |u|^2 + |v|^2 - 2 u.v`` over
precomputed norms instead of materialising the ``(n, k, 2)`` difference
tensor.

The engine knows nothing about payloads or channel semantics; channels
turn its ``(n, k)`` matrix into the ``(receivers, columns)`` arrays of
their ``_reception`` hook (see :mod:`repro.sinr.channel`).  Node
positions are immutable for the engine's lifetime (true for every
deployment in this library).
"""

from __future__ import annotations

import numpy as np

from ..geometry.point import as_positions

__all__ = ["ResolutionEngine", "apply_power_law"]


def apply_power_law(received: np.ndarray, power: float, alpha: float) -> np.ndarray:
    """Turn clamped squared distances into received powers, in place.

    ``received`` holds ``max(dist^2, floor^2)`` values and is overwritten
    with ``P / dist^alpha`` — computed as ``P / (dist^2)^(alpha/2)`` so no
    square root is ever taken.  For integer ``alpha/2`` (the default
    ``alpha = 4``) the exponentiation reduces to repeated multiplication,
    which is several times faster than the generic float power kernel.
    Shared by the dense SINR channel and the sparse engine's COO path so
    the two are bit-identical term by term.
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


class ResolutionEngine:
    """Dense ``(n, k)`` squared distances for one channel's slots.

    Parameters
    ----------
    positions:
        Node coordinates, shape ``(n, 2)``; immutable for the engine's
        lifetime.
    """

    def __init__(self, positions: np.ndarray) -> None:
        self._positions = as_positions(positions)
        # Metric handle; bound by attach_metrics, None = telemetry off
        # (the hot path then pays exactly one None check per slot).
        self._m_evals = None
        # |u|^2 terms of the Gram expansion, shared by every slot.
        self._sq_norms = np.einsum(
            "ij,ij->i", self._positions, self._positions
        )

    def attach_metrics(self, metrics) -> None:
        """Emit the workload counter into ``metrics``.

        Binds ``engine.interference_evaluations`` (receiver x sender
        terms computed, i.e. ``n * k`` per distance-matrix build) from a
        :class:`~repro.telemetry.registry.MetricsRegistry`.  A disabled
        registry is ignored, keeping the unattached fast path intact.
        """
        if not getattr(metrics, "enabled", True):
            return
        self._m_evals = metrics.counter("engine.interference_evaluations")

    def distance_sq(self, senders: np.ndarray) -> np.ndarray:
        """Dense ``(n, k)`` squared distances via the Gram expansion.

        ``senders`` is an index array; column ``j`` corresponds to
        ``senders[j]``, so order is significant.  One matrix product
        instead of an ``(n, k, 2)`` difference tensor; rounding can drive
        tiny true distances a few ulps below zero, so the result is
        clamped at 0.  The caller owns the returned array.
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
