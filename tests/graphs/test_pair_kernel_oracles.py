"""Differential tests: every pairs-within caller against its loop oracle.

The unit-disk graph, ``Coloring.conflicts``, ``violating_pairs`` and the
static Theorem-1 check all answer "which pairs lie within the radius?"
through :func:`repro.geometry.grid_index.candidate_pairs`.  The oracles
below are the implementations they replaced — one ``GridIndex`` disc
query per node, and an all-pairs k×k distance array per color class —
and each caller must reproduce its oracle value for value and type for
type.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.geometry.deployment import uniform_deployment
from repro.geometry.grid_index import GridIndex, candidate_pairs
from repro.graphs.coloring import Coloring
from repro.graphs.independent import violating_pairs
from repro.graphs.udg import UnitDiskGraph
from repro.invariants import IndependenceViolation, independence_violations

# -- oracles ----------------------------------------------------------------


def oracle_neighbors(positions, radius):
    index = GridIndex(positions, cell_size=radius)
    return [index.neighbors_within(i, radius) for i in range(len(positions))]


def oracle_pairs_within(positions, radius):
    """Every pair ``(i, j)``, ``i < j``, found by a per-node disc query."""
    index = GridIndex(positions, cell_size=radius)
    for i in range(len(positions)):
        for j in index.neighbors_within(i, radius):
            if int(j) > i:
                yield i, int(j)


def oracle_conflicts(colors, positions, radius, d=1.0):
    reach = d * radius
    return [
        (u, v)
        for u, v in oracle_pairs_within(positions, reach)
        if colors[u] == colors[v]
    ]


def oracle_violating_pairs(positions, members, radius):
    member_list = sorted(set(int(m) for m in members))
    if len(member_list) < 2:
        return []
    return [
        (member_list[a], member_list[b])
        for a, b in oracle_pairs_within(positions[member_list], radius)
    ]


def oracle_independence_violations(positions, radius, colors, undecided=None):
    """The k×k-per-class static check, keeping pairs by the graph's rule."""
    colors = np.asarray(colors, dtype=np.int64)
    violations = []
    by_color = defaultdict(list)
    for node, color in enumerate(colors):
        color = int(color)
        if color == undecided or (undecided is None and color < 0):
            continue
        by_color[color].append(node)
    for color, members in sorted(by_color.items()):
        if len(members) < 2:
            continue
        pts = positions[members]
        diff = pts[:, None, :] - pts[None, :, :]
        sq = np.einsum("ijk,ijk->ij", diff, diff)
        close = np.triu(sq <= radius * radius, k=1)
        for i, j in zip(*np.nonzero(close)):
            violations.append(
                IndependenceViolation(
                    slot=-1,
                    color_index=color,
                    pair=(members[int(i)], members[int(j)]),
                    distance=float(np.sqrt(sq[i, j])),
                )
            )
    return violations


# -- inputs -----------------------------------------------------------------


def lattice(radius, side=9, origin=(0.0, 0.0)):
    """A square lattice whose spacing is exactly ``radius``."""
    xs = origin[0] + np.arange(side) * radius
    ys = origin[1] + np.arange(side) * radius
    grid_x, grid_y = np.meshgrid(xs, ys)
    return np.column_stack([grid_x.ravel(), grid_y.ravel()])


def corpus(seed):
    """The arena corpus deployment (tests/arena/conftest.py)."""
    return uniform_deployment(20, 3.0, seed=seed).positions


def geometries():
    cases = [(f"corpus-{seed}", corpus(seed), 1.0) for seed in range(60)]
    for radius in (0.1, 0.3, 0.7, 1.0, 1.3):
        cases.append((f"lattice-{radius}", lattice(radius), radius))
    cases.append(("lattice-negative", lattice(0.7, origin=(-3.5, -2.1)), 0.7))
    rng = np.random.default_rng(11)
    cases.append(("negative", rng.uniform(-4.0, 1.0, size=(60, 2)), 1.0))
    coincident = rng.uniform(0.0, 2.0, size=(12, 2))
    coincident[[3, 7, 9]] = coincident[5]
    cases.append(("coincident", coincident, 1.0))
    cases.append(("all-coincident", np.full((5, 2), -1.25), 0.5))
    for n in (0, 1, 2):
        cases.append((f"n={n}", rng.uniform(0.0, 1.0, size=(n, 2)), 1.0))
    return cases


GEOMETRIES = geometries()
IDS = [name for name, _, _ in GEOMETRIES]


def colorings(n, seed):
    """A few colorings per geometry: one class, random classes, undecided."""
    rng = np.random.default_rng(seed)
    return [
        np.zeros(n, dtype=np.int64),
        rng.integers(0, 3, size=n),
        rng.integers(-3, 3, size=n),
    ]


def as_fields(violations):
    fields = [(v.slot, v.color_index, v.pair, v.distance) for v in violations]
    types = [
        (type(v.slot), type(v.color_index), tuple(map(type, v.pair)), type(v.distance))
        for v in violations
    ]
    return fields, types


# -- differential tests -----------------------------------------------------


@pytest.mark.parametrize(("name", "positions", "radius"), GEOMETRIES, ids=IDS)
class TestAgainstOracles:
    def test_udg_neighbors(self, name, positions, radius):
        graph = UnitDiskGraph(positions, radius)
        expected = oracle_neighbors(positions, radius)
        assert graph.n == len(expected)
        for node, want in enumerate(expected):
            got = graph.neighbors(node)
            assert got.dtype == want.dtype == np.intp
            np.testing.assert_array_equal(got, want)
        assert graph.degrees.tolist() == [len(want) for want in expected]

    @pytest.mark.parametrize("undecided", (None, -1, -2))
    def test_independence_violations(self, name, positions, radius, undecided):
        for seed, colors in enumerate(colorings(len(positions), len(name))):
            got = independence_violations(positions, radius, colors, undecided)
            want = oracle_independence_violations(
                positions, radius, colors, undecided
            )
            assert as_fields(got) == as_fields(want), seed

    @pytest.mark.parametrize("d", (1.0, 2.0, 0.5))
    def test_coloring_conflicts(self, name, positions, radius, d):
        for colors in colorings(len(positions), len(name))[:2]:
            got = Coloring(colors).conflicts(positions, radius, d)
            want = oracle_conflicts(colors, positions, radius, d)
            assert got == want
            assert all(type(u) is int and type(v) is int for u, v in got)

    def test_violating_pairs(self, name, positions, radius):
        rng = np.random.default_rng(len(name))
        for members in (range(len(positions)), rng.permutation(len(positions))[::2]):
            got = violating_pairs(positions, members, radius)
            assert got == oracle_violating_pairs(positions, members, radius)
            assert all(type(u) is int and type(v) is int for u, v in got)


def test_lattice_reports_every_exact_radius_pair():
    # a 4×4 lattice of spacing 1.0 has 2·4·3 pairs at distance exactly 1
    positions = lattice(1.0, side=4)
    violations = independence_violations(positions, 1.0, np.zeros(16, dtype=np.int64))
    assert len(violations) == 2 * 4 * 3
    assert {v.distance for v in violations} == {1.0}


def test_undecided_skips_only_its_own_value():
    positions = np.zeros((4, 2))
    colors = np.array([-1, -1, -2, -2])
    assert [v.pair for v in independence_violations(positions, 1.0, colors)] == []
    explicit = independence_violations(positions, 1.0, colors, undecided=-1)
    assert [(v.color_index, v.pair) for v in explicit] == [(-2, (2, 3))]


def test_pair_across_zero_at_exactly_the_radius():
    # x / 0.1 rounds the two points into cells -1 and 1: a plain grid of
    # side 0.1 would never compare them, although they are 0.1 apart.
    positions = np.array([[-5e-18, 0.0], [0.1, 0.0]])
    index = GridIndex(positions, cell_size=0.1)
    assert index.neighbors_within(0, 0.1).tolist() == [1]
    assert index.neighbors_within(1, 0.1).tolist() == [0]
    i, j, sq = candidate_pairs(positions, 0.1)
    assert (i.tolist(), j.tolist()) == ([0], [1]) and sq[0] <= 0.1 * 0.1
    assert UnitDiskGraph(positions, 0.1).edge_count == 1
    assert len(independence_violations(positions, 0.1, [0, 0])) == 1


def test_static_check_keeps_the_graphs_rule():
    # sqrt(sq) rounds down to exactly 1.0 while sq itself exceeds 1.0:
    # the graph has no edge here, so one color is a proper coloring.
    positions = np.array(
        [
            [-1.7792685559431023, -1.426119957348903],
            [-1.7769772522369491, -2.4261173323091207],
        ]
    )
    i, j, sq = candidate_pairs(positions, 1.0)
    assert sq[0] > 1.0 and np.sqrt(sq[0]) <= 1.0
    assert UnitDiskGraph(positions, 1.0).degrees.tolist() == [0, 0]
    assert independence_violations(positions, 1.0, [0, 0]) == []
    assert Coloring(np.array([0, 0])).conflicts(positions, 1.0) == []


def test_greedy_run_on_the_boundary_pair_is_proper():
    from repro.algorithms import run_coloring_algorithm

    positions = np.array(
        [
            [-1.7792685559431023, -1.426119957348903],
            [-1.7769772522369491, -2.4261173323091207],
        ]
    )
    outcome = run_coloring_algorithm("greedy", positions)
    assert outcome.colors.tolist() == [0, 0]
    assert outcome.is_proper() and outcome.clean
