"""Grid-bucketed sparse SINR resolution for large deployments.

The dense :class:`~repro.sinr.engine.ResolutionEngine` materialises the
full ``(n, k)`` receiver x sender gain matrix every slot — exact, cache
friendly, and O(n * k) in both memory and work, which caps deployments at
a few thousand nodes.  :class:`SparseResolutionEngine` trades a provably
conservative far-field term for O(n * deg) cost:

* **Near field, exact.**  Nodes are hashed once into square grid cells of
  side ``R_I / sqrt(2)`` (so any two points in one cell are within
  ``R_I``).  Per slot, senders are grouped by cell and gain terms are
  computed only for (receiver, sender) pairs within the ``R_I`` disc —
  the same Gram-expansion squared distances, near-field floor and
  power-law kernel as the dense engine, just restricted to pairs that
  can matter.

* **Far field, certified upper bound.**  Every sender beyond ``R_I``
  contributes strictly less than ``P / R_I^alpha`` received power, so
  charging each receiver ``k_far(u) * P / R_I^alpha`` — its count of
  out-of-disc senders times that per-sender cap — never *under*-states
  interference.  Overstating interference can only suppress deliveries,
  hence the structural guarantee the differential suite asserts: the
  sparse delivery set is a **subset** of the dense one, with exact parity
  whenever no sender is beyond ``R_I`` (or the term is disabled).

The paper's Lemma 3 is why the conservative term is also *negligible* in
the regime the algorithm is analysed for: the expected total interference
from outside the ``R_I`` disc is at most ``P / (2 rho beta R_T^alpha)``,
one beta-th of the weakest decodable signal.  At the default constants
the per-sender cap ``P / R_I^alpha`` is ``(R_T / R_I)^alpha ~ 2e-7`` of
an edge-of-range signal, so the bound cannot flip a decodable delivery
until millions of concurrent far senders pile up.  Derivation, decision
guide and measured scaling: ``docs/SCALING.md``.

Delivery semantics are dense-compatible by construction: the strongest
near-field sender is selected with the same first-column tie-breaking
(any *decodable* sender lies within ``R_T < R_I``, so restricting the
argmax to the near field never changes a delivery's sender), and the
half-duplex and in-range predicates are identical.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from ..geometry.point import as_positions
from .engine import apply_power_law
from .params import PhysicalParams

__all__ = ["SparseResolutionEngine"]


class SparseResolutionEngine:
    """Sparse receiver x sender reception decisions for one deployment.

    Parameters
    ----------
    positions:
        Node coordinates, shape ``(n, 2)``; immutable for the engine's
        lifetime (the grid is built once).
    params:
        Physical constants; ``params.r_i`` sizes the near-field disc and
        the far-field cap unless ``interference_range`` overrides it.
    half_duplex:
        Same meaning as on :class:`~repro.sinr.channel.SINRChannel`.
    far_field:
        Charge the certified ``k_far * P / R_I^alpha`` term (default).
        Disabling it drops all out-of-disc interference — exact parity
        with the dense engine when every pair is near, but *uncertified*
        (deliveries may exceed the dense set) when far senders exist.
    interference_range:
        Truncation radius overriding ``params.r_i``.  Must be at least
        ``params.r_t``: the subset guarantee needs every decodable
        sender inside the near field.  Smaller ranges make the resolver
        cheaper and more conservative; ``docs/SCALING.md`` discusses the
        trade.
    """

    def __init__(
        self,
        positions: np.ndarray,
        params: PhysicalParams,
        half_duplex: bool = True,
        far_field: bool = True,
        interference_range: float | None = None,
    ) -> None:
        self._positions = as_positions(positions)
        self._params = params
        self._half_duplex = bool(half_duplex)
        self._far_field = bool(far_field)
        radius = params.r_i if interference_range is None else float(interference_range)
        if radius < params.r_t:
            raise ConfigurationError(
                f"interference_range must be >= R_T ({params.r_t}); got {radius} "
                "— a decodable sender outside the near field would break the "
                "sparse-subset-of-dense guarantee"
            )
        self._radius = radius
        self._radius_sq = radius * radius
        #: per-sender cap on far-field received power: d > radius => P/d^a < this
        self._far_unit = params.power / radius**params.alpha
        self._cell = radius / math.sqrt(2.0)
        #: cells a disc of the truncation radius can reach (2 for R_I/sqrt(2))
        self._reach = math.ceil(radius / self._cell)
        # |u|^2 terms of the per-block Gram expansion, shared by every slot.
        self._sq_norms = np.einsum("ij,ij->i", self._positions, self._positions)
        self._cells = self._bucket(self._positions, self._cell)
        self._pair_evals = 0
        self._near_pairs = 0

    @staticmethod
    def _bucket(
        positions: np.ndarray, cell: float
    ) -> dict[tuple[int, int], np.ndarray]:
        """All node indices grouped by grid cell, vectorised.

        Cells are ``floor(x / cell)``, so a node sitting on a cell
        boundary lands in the higher-coordinate cell.
        """
        grid = np.floor(positions / cell).astype(np.int64)
        order = np.lexsort((grid[:, 1], grid[:, 0]))
        ordered = grid[order]
        if len(ordered) == 0:
            return {}
        changed = np.flatnonzero((np.diff(ordered, axis=0) != 0).any(axis=1)) + 1
        starts = np.concatenate(([0], changed, [len(ordered)]))
        buckets: dict[tuple[int, int], np.ndarray] = {}
        indices = order.astype(np.intp)
        for lo, hi in zip(starts[:-1], starts[1:]):
            key = (int(ordered[lo, 0]), int(ordered[lo, 1]))
            buckets[key] = np.sort(indices[lo:hi])
        return buckets

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self._positions)

    @property
    def radius(self) -> float:
        """The truncation radius (``R_I`` unless overridden)."""
        return self._radius

    @property
    def cell_size(self) -> float:
        """Grid cell side, ``radius / sqrt(2)``."""
        return self._cell

    @property
    def far_field(self) -> bool:
        """Whether the certified far-field term is charged."""
        return self._far_field

    @property
    def pair_evals(self) -> int:
        """Candidate (receiver, sender) distance evaluations so far.

        The sparse analogue of the dense engine's ``n * k`` per slot;
        the scaling benchmark and tests read it to prove the O(n * deg)
        claim.
        """
        return self._pair_evals

    @property
    def near_pairs(self) -> int:
        """(receiver, sender) pairs that fell inside the disc so far."""
        return self._near_pairs

    def _candidates(self, ci: int, cj: int) -> np.ndarray:
        """All node indices in the cell neighbourhood of sender cell (ci, cj)."""
        found = []
        for di in range(-self._reach, self._reach + 1):
            for dj in range(-self._reach, self._reach + 1):
                bucket = self._cells.get((ci + di, cj + dj))
                if bucket is not None:
                    found.append(bucket)
        if not found:
            return np.empty(0, dtype=np.intp)
        if len(found) == 1:
            return found[0]
        return np.concatenate(found)

    def reception(self, senders: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(receiving mask, best column per receiver)`` for this sender set.

        Mirrors the dense ``SINRChannel._reception_of`` contract: column
        order is transmission order, the strongest near sender wins with
        first-column tie-breaking, and the half-duplex mask is applied.
        ``best column`` is ``k`` (one past the last column) for receivers
        with no near-field sender; such rows are never receiving.
        """
        senders = np.ascontiguousarray(senders, dtype=np.intp)
        params = self._params
        n = self.n
        k = senders.size
        receiving = np.zeros(n, dtype=bool)
        best_col = np.full(n, k, dtype=np.intp)
        if k == 0:
            return receiving, best_col

        floor = params.r_t * 1e-6
        floor_sq = floor * floor

        # Group sender columns by grid cell, in deterministic cell order.
        sender_grid = np.floor(self._positions[senders] / self._cell).astype(np.int64)
        order = np.lexsort((sender_grid[:, 1], sender_grid[:, 0]))
        ordered = sender_grid[order]
        changed = np.flatnonzero((np.diff(ordered, axis=0) != 0).any(axis=1)) + 1
        starts = np.concatenate(([0], changed, [k]))

        # One COO (receiver, column, clamped d^2) triple per near pair;
        # total size is the O(n * deg) the module docstring advertises.
        coo_rows: list[np.ndarray] = []
        coo_cols: list[np.ndarray] = []
        coo_sq: list[np.ndarray] = []
        for lo, hi in zip(starts[:-1], starts[1:]):
            cols = order[lo:hi]
            cell_senders = senders[cols]
            cand = self._candidates(int(ordered[lo, 0]), int(ordered[lo, 1]))
            if cand.size == 0:
                continue
            # Same Gram expansion as the dense engine, restricted to the
            # candidate block; clamped at 0 against ulp-negative squares.
            block = self._positions[cand] @ self._positions[cell_senders].T
            block *= -2.0
            block += self._sq_norms[cand][:, None]
            block += self._sq_norms[cell_senders][None, :]
            np.maximum(block, 0.0, out=block)
            self._pair_evals += block.size
            near = block <= self._radius_sq
            # A sender's own signal is neither signal nor interference.
            near &= cand[:, None] != cell_senders[None, :]
            rows_b, cols_b = np.nonzero(near)
            if rows_b.size == 0:
                continue
            coo_rows.append(cand[rows_b])
            coo_cols.append(cols[cols_b])
            coo_sq.append(np.maximum(block[rows_b, cols_b], floor_sq))

        own = np.zeros(n, dtype=np.int64)
        own[senders] = 1
        if coo_rows:
            rows = np.concatenate(coo_rows)
            cols = np.concatenate(coo_cols)
            clamped = np.concatenate(coo_sq)
            self._near_pairs += rows.size

            power = apply_power_law(clamped.copy(), params.power, params.alpha)
            near_total = np.bincount(rows, weights=power, minlength=n)
            near_count = np.bincount(rows, minlength=n)

            # Strongest near sender == smallest clamped d^2 (the power law
            # is strictly decreasing), with dense-compatible tie-breaking:
            # among equally near columns the earliest transmission wins.
            best_sq = np.full(n, np.inf)
            np.minimum.at(best_sq, rows, clamped)
            at_best = clamped == best_sq[rows]
            np.minimum.at(best_col, rows[at_best], cols[at_best])

            have = best_col < k
            best_power = np.zeros(n)
            best_power[have] = apply_power_law(
                best_sq[have].copy(), params.power, params.alpha
            )

            interference = near_total - best_power
            if self._far_field:
                far_count = k - near_count - own
                interference = interference + far_count * self._far_unit
            decodable = best_power >= params.beta * (params.noise + interference)
            in_range = np.zeros(n, dtype=bool)
            in_range[have] = best_sq[have] <= params.r_t * params.r_t
            receiving = decodable & in_range & (best_power > 0)

        if self._half_duplex:
            receiving[senders] = False
        return receiving, best_col
