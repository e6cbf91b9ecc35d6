"""Distributed degree estimation: towards coloring with unknown Delta.

The paper's conclusion leaves open "whether it is possible to get rid of
the knowledge of Delta and n in our analysis".  This module implements the
standard probing approach as a practical extension:

* **Density probing.**  In phase ``k`` every node transmits its id with
  probability ``2^{-k}`` for ``slots_per_phase`` slots.  For each node
  there is a phase whose probability is within a factor 2 of the inverse
  local density; during that phase each neighbor is decoded with constant
  probability per slot, so most neighbors are heard at least once across
  the phase.  The distinct-senders count is a lower estimate of the
  degree, inflated by a ``safety`` factor.
* **Local max aggregation.**  The MW constants must dominate the degrees
  of nearby competitors, so nodes then run a few rounds of "broadcast my
  current estimate, keep the max heard" — converging to the neighborhood
  maximum.

The resulting per-node estimates feed
:func:`run_mw_coloring_estimated_delta`, which builds the practical
constants from the *network-wide maximum estimate* (in a deployment the
aggregation spreads it; we read it off directly) and runs the standard
algorithm.  ``n`` may also be unknown: any upper bound works, since it
only enters through ``ln n`` (a 4x overestimate of n costs < 2x time).

This is an empirical extension, not a proved algorithm: the experiments
show the probe reliably brackets the true Delta and the downstream
coloring retains all its invariants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._validation import require_int, require_positive
from ..geometry.deployment import Deployment
from ..sinr.channel import SINRChannel, Transmission
from ..sinr.params import PhysicalParams
from ..simulation.rng import rng_from_seed
from .constants import AlgorithmConstants
from .result import MWColoringResult
from .runner import run_mw_coloring

__all__ = [
    "DegreeEstimate",
    "estimate_degrees",
    "run_mw_coloring_estimated_delta",
]


@dataclass(frozen=True)
class DegreeEstimate:
    """Result of the distributed degree-probing protocol.

    Attributes
    ----------
    estimates:
        Per-node degree estimates after safety inflation and aggregation.
    heard_counts:
        Raw distinct-neighbor counts per node (before inflation).
    slots_used:
        Total physical slots the probe consumed.
    """

    estimates: np.ndarray
    heard_counts: np.ndarray
    slots_used: int

    @property
    def max_estimate(self) -> int:
        """The network-wide maximum estimate (what the runner uses)."""
        return int(self.estimates.max())


def estimate_degrees(
    deployment: Deployment | np.ndarray,
    params: PhysicalParams,
    seed: int = 0,
    phases: int = 10,
    slots_per_phase: int = 40,
    safety: float = 2.0,
    aggregation_rounds: int = 2,
) -> DegreeEstimate:
    """Run the probing + aggregation protocol; see module docstring.

    ``phases = 10`` covers local densities up to ~1024; the probe costs
    ``phases * slots_per_phase`` slots plus
    ``aggregation_rounds * slots_per_phase`` for the max spreading —
    O(log Delta_max) phases, each O(1) w.r.t. n.
    """
    positions = (
        deployment.positions if isinstance(deployment, Deployment) else deployment
    )
    require_int("phases", phases, minimum=1)
    require_int("slots_per_phase", slots_per_phase, minimum=1)
    require_int("aggregation_rounds", aggregation_rounds, minimum=0)
    require_positive("safety", safety)
    channel = SINRChannel(positions, params)
    n = channel.n
    rng = rng_from_seed(seed)
    heard: list[set[int]] = [set() for _ in range(n)]
    slots = 0

    for phase in range(phases):
        probability = 2.0**-phase
        for _ in range(slots_per_phase):
            slots += 1
            senders = np.flatnonzero(rng.random(n) < probability)
            if senders.size == 0:
                continue
            transmissions = [Transmission(int(s), int(s)) for s in senders]
            for delivery in channel.resolve(transmissions):
                heard[delivery.receiver].add(delivery.payload)

    heard_counts = np.asarray([len(h) for h in heard], dtype=np.int64)
    estimates = np.maximum(1, np.ceil(safety * heard_counts)).astype(np.int64)

    # Local max aggregation: broadcast estimates, keep the max heard.
    for _ in range(aggregation_rounds):
        current = estimates.copy()
        rates = np.minimum(0.5, 1.0 / np.maximum(2, current))
        for _ in range(slots_per_phase):
            slots += 1
            senders = np.flatnonzero(rng.random(n) < rates)
            if senders.size == 0:
                continue
            transmissions = [
                Transmission(int(s), int(current[s])) for s in senders
            ]
            for delivery in channel.resolve(transmissions):
                if delivery.payload > estimates[delivery.receiver]:
                    estimates[delivery.receiver] = delivery.payload

    return DegreeEstimate(
        estimates=estimates, heard_counts=heard_counts, slots_used=slots
    )


def run_mw_coloring_estimated_delta(
    deployment: Deployment | np.ndarray,
    params: PhysicalParams | None = None,
    seed: int = 0,
    n_upper_bound: int | None = None,
    **estimate_kwargs,
) -> tuple[MWColoringResult, DegreeEstimate]:
    """MW coloring without a priori knowledge of Delta.

    Probes the deployment for a degree estimate, builds the practical
    constants from the maximum estimate (and ``n_upper_bound``, default the
    true n — any upper bound is admissible since it enters via ``ln n``),
    then runs the standard algorithm.  Returns the run result together with
    the estimate so callers can compare against the realised Delta.
    """
    if params is None:
        params = PhysicalParams().with_r_t(1.0)
    positions = (
        deployment.positions if isinstance(deployment, Deployment) else deployment
    )
    n = len(positions)
    estimate = estimate_degrees(positions, params, seed=seed, **estimate_kwargs)
    n_bound = n_upper_bound if n_upper_bound is not None else n
    require_int("n_upper_bound", n_bound, minimum=n)
    from ..geometry.density import phi_empirical

    phi_2rt = max(2, phi_empirical(positions, 2.0 * params.r_t, params.r_t))
    constants = AlgorithmConstants.practical(
        delta=max(1, estimate.max_estimate),
        n=n,
        phi_2rt=phi_2rt,
    )
    # the log factor may use the upper bound rather than the true n
    if n_bound != n:
        import math

        stretch = max(1.0, math.log(n_bound)) / constants.log_term
        constants = constants.scaled(stretch)
    result = run_mw_coloring(
        deployment, params, constants=constants, seed=seed + 1
    )
    return result, estimate
