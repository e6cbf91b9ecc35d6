"""Geometric substrate: points, regions, spatial indexing, deployments.

This package contains everything the rest of the library needs to reason
about nodes placed in the Euclidean plane:

* :mod:`repro.geometry.point` — distance computations on coordinate arrays.
* :mod:`repro.geometry.region` — discs and annuli with area helpers, used by
  the interference-bounding arguments of the paper (Lemma 3, Theorem 3).
* :mod:`repro.geometry.grid_index` — a uniform-grid spatial index giving
  expected O(1) range queries for bounded-density deployments, and the
  vectorised all-pairs form :func:`candidate_pairs`, and
  :func:`unit_disk_csr`, the unit-disk graph's adjacency built from it.
* :mod:`repro.geometry.deployment` — synthetic node-placement generators.
* :mod:`repro.geometry.density` — the packing bound ``phi(R)`` of the paper
  and an empirical estimator for it.
"""

from __future__ import annotations

from .deployment import (
    Deployment,
    clustered_deployment,
    corridor_deployment,
    grid_deployment,
    perturbed_grid_deployment,
    poisson_deployment,
    ring_deployment,
    uniform_deployment,
)
from .density import phi_empirical, phi_upper_bound
from .grid_index import GridIndex, candidate_pairs, unit_disk_csr
from .point import chebyshev_distance, distance, distance_matrix, pairwise_distances
from .region import Annulus, Disc

__all__ = [
    "Annulus",
    "Deployment",
    "Disc",
    "GridIndex",
    "candidate_pairs",
    "chebyshev_distance",
    "clustered_deployment",
    "corridor_deployment",
    "distance",
    "distance_matrix",
    "grid_deployment",
    "pairwise_distances",
    "perturbed_grid_deployment",
    "phi_empirical",
    "phi_upper_bound",
    "poisson_deployment",
    "ring_deployment",
    "uniform_deployment",
    "unit_disk_csr",
]
