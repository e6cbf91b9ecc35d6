"""Differential tests: the sparse resolver against the dense engine.

The sparse engine's contract (``docs/SCALING.md``) has two halves, and
this suite pins both on the seeded scenario corpus of
``test_channel_reference``:

* **Containment.**  The certified far-field term only ever *over*-states
  interference, so with the term enabled the sparse delivery set must be
  a subset of the dense one — on every scenario, at any truncation
  radius >= R_T.  At the default parameters R_I = 48 R_T, so every pair
  in a <= 8-extent scenario is near and the subset is trivially equality;
  to make the conservatism actually bite, the subset corpus truncates
  ``interference_range`` to 2 R_T and asserts that at least some
  scenarios produce a *strict* subset (otherwise the test would pass
  vacuously on a resolver that ignores the far field entirely).

* **Parity.**  With the far-field term disabled, near-field terms are
  computed by the same kernel on the same clamped squared distances, so
  when every sender pair is near the delivery sets must be *equal* —
  including tie-breaking on coincident nodes.

Plus the grid-bucketing edge cases the cell structure must survive:
nodes exactly on cell boundaries, coincident nodes, everything in one
cell, empty and singleton sender sets — and a hypothesis property that
containment holds on arbitrary random deployments.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sinr.channel import SINRChannel, Transmission
from repro.sinr.params import PhysicalParams
from repro.sinr.sparse import SparseResolutionEngine

from .test_channel_reference import PARAMS, SCENARIO_SEEDS, as_set, random_scenario

#: Truncation radius for the subset corpus: well inside the 1.5–8 extent
#: range, so out-of-disc senders actually exist and the certified term
#: genuinely engages (at the full R_I = 48 R_T every pair would be near).
TRUNCATED_RANGE = 2.0


def dense_and_sparse(positions, half_duplex):
    dense = SINRChannel(positions, PARAMS, half_duplex=half_duplex)
    sparse = SINRChannel(positions, PARAMS, half_duplex=half_duplex, resolver="sparse")
    return dense, sparse


def dense_and_engine(positions, transmissions, half_duplex, **engine_kwargs):
    """Dense and sparse delivery sets, the sparse one from an engine built
    directly with the tuning knobs (``far_field``, ``interference_range``)
    that only the engine exposes."""
    dense = SINRChannel(positions, PARAMS, half_duplex=half_duplex)
    engine = SparseResolutionEngine(
        positions, PARAMS, half_duplex=half_duplex, **engine_kwargs
    )
    senders = np.array([t.sender for t in transmissions], dtype=np.intp)
    receiving, best = engine.reception(senders)
    sparse = {
        (int(u), transmissions[best[u]].sender, transmissions[best[u]].payload)
        for u in np.flatnonzero(receiving)
    }
    return as_set(dense.resolve(transmissions)), sparse


# -- containment: sparse ⊆ dense ----------------------------------------------


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_sparse_deliveries_subset_of_dense(seed):
    positions, transmissions, half_duplex = random_scenario(seed)
    dense_set, sparse_set = dense_and_engine(
        positions, transmissions, half_duplex, interference_range=TRUNCATED_RANGE
    )
    assert sparse_set <= dense_set


def test_truncated_corpus_produces_strict_subsets():
    """The subset assertion above must not be passing vacuously: across
    the corpus the certified term has to suppress at least one delivery
    the dense engine grants (conservatism actually engaged)."""
    strict = 0
    for seed in SCENARIO_SEEDS:
        positions, transmissions, half_duplex = random_scenario(seed)
        dense_set, sparse_set = dense_and_engine(
            positions, transmissions, half_duplex, interference_range=TRUNCATED_RANGE
        )
        if sparse_set < dense_set:
            strict += 1
    assert strict > 0


# -- parity: far-field term disabled or unreachable ---------------------------


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_sparse_exact_parity_with_far_field_disabled(seed):
    """With the far term off and every pair near (extent <= 8 << R_I), the
    sparse path runs the dense decision on the same clamped distances."""
    positions, transmissions, half_duplex = random_scenario(seed)
    dense_set, sparse_set = dense_and_engine(
        positions, transmissions, half_duplex, far_field=False
    )
    assert sparse_set == dense_set


@pytest.mark.parametrize("seed", SCENARIO_SEEDS)
def test_sparse_exact_parity_at_default_range(seed):
    """At the default R_I = 48 R_T no scenario sender is ever far, so the
    certified term is exactly zero and even the enabled-far-field sparse
    path must agree with dense verbatim."""
    positions, transmissions, half_duplex = random_scenario(seed)
    dense, sparse = dense_and_sparse(positions, half_duplex)
    assert as_set(sparse.resolve(transmissions)) == as_set(
        dense.resolve(transmissions)
    )


# -- grid bucketing edge cases -------------------------------------------------


class TestGridBucketing:
    def test_nodes_exactly_on_cell_boundaries(self):
        """Nodes sitting exactly on cell-boundary multiples of the cell
        side must land in exactly one bucket each and resolve like dense."""
        engine = SparseResolutionEngine(np.zeros((1, 2)), PARAMS)
        cell = engine.cell_size
        positions = np.array(
            [
                [0.0, 0.0],
                [cell, 0.0],
                [0.0, cell],
                [cell, cell],
                [2 * cell, 2 * cell],
                [0.5 * cell, 0.5 * cell],
            ]
        )
        boundary = SparseResolutionEngine(positions, PARAMS)
        bucketed = np.sort(
            np.concatenate([bucket for bucket in boundary._cells.values()])
        )
        assert bucketed.tolist() == list(range(len(positions)))
        transmissions = [Transmission(0, "a"), Transmission(4, "b")]
        dense, sparse = dense_and_sparse(positions, True)
        assert as_set(sparse.resolve(transmissions)) == as_set(
            dense.resolve(transmissions)
        )

    def test_coincident_nodes(self):
        """Coincident sender pairs jam each other identically under both
        resolvers (near-field floor + tie-breaking)."""
        positions = np.array(
            [[1.0, 1.0], [1.0, 1.0], [1.5, 1.0], [4.0, 4.0], [4.0, 4.0]]
        )
        transmissions = [Transmission(0, "a"), Transmission(1, "b"), Transmission(3, "c")]
        for half_duplex in (True, False):
            dense, sparse = dense_and_sparse(positions, half_duplex)
            assert as_set(sparse.resolve(transmissions)) == as_set(
                dense.resolve(transmissions)
            )

    def test_all_nodes_in_one_cell(self):
        """A deployment much smaller than one cell: a single bucket, a
        single candidate block, dense-equal results."""
        rng = np.random.default_rng(7)
        engine = SparseResolutionEngine(np.zeros((1, 2)), PARAMS)
        positions = rng.uniform(0.0, 0.2 * engine.cell_size, size=(12, 2))
        sparse_engine = SparseResolutionEngine(positions, PARAMS)
        assert len(sparse_engine._cells) == 1
        transmissions = [Transmission(i, i) for i in (0, 3, 5)]
        dense, sparse = dense_and_sparse(positions, True)
        assert as_set(sparse.resolve(transmissions)) == as_set(
            dense.resolve(transmissions)
        )

    def test_empty_sender_set(self):
        positions = np.random.default_rng(0).uniform(0, 3, size=(10, 2))
        sparse = SINRChannel(positions, PARAMS, resolver="sparse")
        assert sparse.resolve([]) == []
        receiving, best = sparse.sparse_engine.reception(
            np.empty(0, dtype=np.intp)
        )
        assert not receiving.any()
        assert (best == 0).all()

    def test_single_node_transmitting_alone(self):
        sparse = SINRChannel(np.array([[0.0, 0.0]]), PARAMS, resolver="sparse")
        assert sparse.resolve([Transmission(0, "x")]) == []

    def test_all_nodes_transmitting_half_duplex(self):
        positions = np.random.default_rng(1).uniform(0, 2, size=(6, 2))
        transmissions = [Transmission(i, i) for i in range(6)]
        sparse = SINRChannel(positions, PARAMS, resolver="sparse")
        assert sparse.resolve(transmissions) == []


# -- configuration surface -----------------------------------------------------


class TestResolverConfiguration:
    def test_channel_has_no_sparse_tuning_knobs(self):
        """Tuning lives on the engine; the channel only picks a backend."""
        positions = np.zeros((2, 2))
        for knob in ({"far_field": False}, {"interference_range": 2.0}):
            with pytest.raises(TypeError):
                SINRChannel(positions, PARAMS, resolver="sparse", **knob)

    def test_unknown_resolver_rejected(self):
        with pytest.raises(ConfigurationError):
            SINRChannel(np.zeros((2, 2)), PARAMS, resolver="banded")

    def test_interference_range_below_r_t_rejected(self):
        """A truncation radius below R_T could cut off a decodable sender,
        voiding the subset guarantee — must be refused loudly."""
        with pytest.raises(ConfigurationError):
            SparseResolutionEngine(
                np.zeros((2, 2)), PARAMS, interference_range=0.5 * PARAMS.r_t
            )

    def test_resolver_property_reports_backend(self):
        positions = np.zeros((3, 2))
        assert SINRChannel(positions, PARAMS).resolver == "dense"
        sparse = SINRChannel(positions, PARAMS, resolver="sparse")
        assert sparse.resolver == "sparse"
        assert sparse.sparse_engine is not None
        assert math.isclose(
            sparse.sparse_engine.cell_size, PARAMS.r_i / math.sqrt(2.0)
        )

    def test_sparse_work_counter_advances(self):
        positions = np.random.default_rng(3).uniform(0, 4, size=(20, 2))
        engine = SparseResolutionEngine(
            positions, PARAMS, interference_range=TRUNCATED_RANGE
        )
        engine.reception(np.array([0, 5], dtype=np.intp))
        assert engine.pair_evals > 0
        assert engine.near_pairs <= engine.pair_evals


# -- hypothesis property: containment on arbitrary deployments -----------------


@st.composite
def sparse_scenario(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    coords = draw(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=12.0),
                st.floats(min_value=0.0, max_value=12.0),
            ),
            min_size=n,
            max_size=n,
        )
    )
    k = draw(st.integers(min_value=0, max_value=n))
    senders = draw(
        st.lists(
            st.integers(min_value=0, max_value=n - 1),
            min_size=k,
            max_size=k,
            unique=True,
        )
    )
    half_duplex = draw(st.booleans())
    return np.asarray(coords, dtype=float), senders, half_duplex


@given(sparse_scenario())
@settings(max_examples=50, deadline=None)
def test_sparse_subset_property(scenario):
    positions, senders, half_duplex = scenario
    transmissions = [Transmission(s, ("p", s)) for s in senders]
    dense_set, sparse_set = dense_and_engine(
        positions, transmissions, half_duplex, interference_range=TRUNCATED_RANGE
    )
    assert sparse_set <= dense_set
