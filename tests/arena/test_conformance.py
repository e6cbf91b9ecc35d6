"""The conformance contract every zoo entry must satisfy.

Algorithms are discovered from the registry — nothing here names an
entry in a parametrize list by hand — so registering a new algorithm
subscribes it to this whole corpus:

* fault-free: over all 60 corpus seeds, the run completes, the coloring
  is proper (:func:`repro.invariants.independence_violations`) and the
  run-exact palette bound holds (:func:`repro.invariants.palette_violations`);
* under the PR-5 fault plans (crash outages, sleep windows, message
  loss): protocol entries keep independence among survivors — a downed
  node may break its own decision, never a fault-free pair — while
  non-protocol entries are literally fault-immune (bit-identical rows).

The registry surface itself (lookup errors, duplicate rejection, model
vocabulary, entries without node machines declining ``build_nodes``) is
locked at the bottom.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    ColoringAlgorithm,
    ProtocolContext,
    algorithm_names,
    all_algorithms,
    get_algorithm,
    register_algorithm,
    run_coloring_algorithm,
)
from repro.algorithms.base import MODELS, ColoringTask
from repro.errors import ConfigurationError
from repro.faults import FaultPlan, MessageFaults, NodeOutage
from repro.graphs.udg import UnitDiskGraph
from repro.invariants import independence_violations, palette_violations

from .conftest import CORPUS_SEEDS, PARAMS, corpus_deployment

ALGORITHMS = algorithm_names()
PROTOCOLS = tuple(
    entry.name for entry in all_algorithms() if entry.model == "sinr-protocol"
)
IMMUNE = tuple(
    entry.name for entry in all_algorithms() if entry.model != "sinr-protocol"
)
FAULT_SEEDS = CORPUS_SEEDS[:6]


def crash_plan() -> FaultPlan:
    """Two radios lost at slot 0, never restarting (PR-5 crash regime)."""
    return FaultPlan(
        outages=[NodeOutage(node=node, start=0, stop=None) for node in (0, 7)]
    )


def sleep_plan() -> FaultPlan:
    """Three sleepers over a long mid-run window, then restart."""
    return FaultPlan(
        outages=[
            NodeOutage(node=node, start=50, stop=900) for node in (3, 11, 15)
        ]
    )


def loss_plan() -> FaultPlan:
    """Moderate message loss (drops and corruption)."""
    return FaultPlan(messages=MessageFaults(drop=0.2, corrupt=0.05))


def survivor_violations(outcome, down_nodes):
    """Independence violations among nodes whose radio never failed."""
    masked = outcome.colors.copy()
    for node in down_nodes:
        masked[node] = -1
    graph = outcome.graph
    return independence_violations(graph.positions, graph.radius, masked)


class TestRegistryDiscovery:
    def test_zoo_is_populated(self):
        # The corpus must not pass vacuously: the reference entry plus
        # both competitors and both baselines are all registered.
        assert set(ALGORITHMS) >= {
            "mw", "fuchs_prutkin", "kuhn_multicolor", "greedy", "luby",
        }
        assert "mw" in PROTOCOLS and "fuchs_prutkin" in PROTOCOLS
        assert set(IMMUNE) >= {"kuhn_multicolor", "greedy", "luby"}

    def test_names_are_sorted_and_models_declared(self):
        assert list(ALGORITHMS) == sorted(ALGORITHMS)
        for entry in all_algorithms():
            assert entry.model in MODELS
            assert entry.describe() == {
                "algorithm": entry.name, "model": entry.model,
            }

    def test_unknown_name_names_the_registry(self):
        with pytest.raises(ConfigurationError, match="fuchs_prutkin"):
            get_algorithm("no-such-coloring")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):

            @register_algorithm
            class Shadow(ColoringAlgorithm):
                name = "mw"

                def palette_bound(self, delta):
                    return delta + 1

                def run(self, task):
                    raise NotImplementedError

        assert type(get_algorithm("mw")).__name__ == "MWColoring"

    def test_nameless_entry_rejected(self):
        with pytest.raises(ConfigurationError, match="non-empty"):

            @register_algorithm
            class Anonymous(ColoringAlgorithm):
                def palette_bound(self, delta):
                    return delta + 1

                def run(self, task):
                    raise NotImplementedError

    def test_palette_bounds_scale_with_delta(self):
        for entry in all_algorithms():
            assert entry.palette_bound(1) >= 1
            assert entry.palette_bound(8) >= entry.palette_bound(1)


class TestFaultFreeConformance:
    @pytest.mark.parametrize("seed", CORPUS_SEEDS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_invariants_on_the_shared_corpus(self, algorithm, seed, arena_run):
        outcome = arena_run(algorithm, seed)
        assert outcome.algorithm == algorithm
        assert outcome.completed, f"{algorithm} did not complete on seed {seed}"
        assert outcome.decided == outcome.n
        graph = outcome.graph
        assert not independence_violations(
            graph.positions, graph.radius, outcome.colors
        )
        decided = outcome.colors[outcome.colors >= 0]
        assert palette_violations(decided, outcome.palette_bound) == []
        assert outcome.clean
        # The run-exact bound never exceeds the a-priori promise.
        entry = get_algorithm(algorithm)
        assert outcome.palette_bound <= entry.palette_bound(
            max(1, graph.max_degree)
        )

    @pytest.mark.parametrize("algorithm", PROTOCOLS)
    def test_live_audit_attached_for_protocol_entries(self, algorithm, arena_run):
        outcome = arena_run(algorithm, CORPUS_SEEDS[0])
        assert outcome.audit_violations == ()
        assert outcome.stats is not None and outcome.stats.completed

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_schedule_reaches_the_mac_verify_path(self, algorithm, arena_run):
        outcome = arena_run(algorithm, CORPUS_SEEDS[1])
        schedule = outcome.schedule()
        assert schedule.frame_length == outcome.num_colors


class TestConformanceUnderFaults:
    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    @pytest.mark.parametrize("algorithm", PROTOCOLS)
    @pytest.mark.parametrize(
        "plan_factory,down_nodes",
        [(crash_plan, (0, 7)), (sleep_plan, (3, 11, 15))],
        ids=["crash", "sleep"],
    )
    def test_survivors_keep_independence(
        self, algorithm, seed, plan_factory, down_nodes
    ):
        outcome = run_coloring_algorithm(
            algorithm, corpus_deployment(seed), PARAMS,
            seed=seed, faults=plan_factory(),
        )
        # Whatever a downed node did to itself, every live-audit
        # violation involves at least one node that lost its radio.
        assert outcome.audit_violations is not None
        for violation in outcome.audit_violations:
            assert set(violation.pair) & set(down_nodes), (
                f"{algorithm}: fault-free nodes violated Theorem 1: "
                f"{violation}"
            )
        assert survivor_violations(outcome, down_nodes) == []
        assert outcome.fault_events is not None

    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    @pytest.mark.parametrize("algorithm", PROTOCOLS)
    def test_moderate_loss_never_breaks_independence(self, algorithm, seed):
        outcome = run_coloring_algorithm(
            algorithm, corpus_deployment(seed), PARAMS,
            seed=seed, faults=loss_plan(),
        )
        assert outcome.audit_violations == ()
        assert outcome.completed and outcome.is_proper()
        events = outcome.fault_events
        assert events is not None and events["dropped"] > 0

    @pytest.mark.parametrize("algorithm", IMMUNE)
    def test_non_protocol_entries_are_fault_immune(self, algorithm, arena_run):
        seed = FAULT_SEEDS[0]
        baseline = arena_run(algorithm, seed)
        faulted = run_coloring_algorithm(
            algorithm, corpus_deployment(seed), PARAMS,
            seed=seed, faults=crash_plan(),
        )
        assert np.array_equal(baseline.colors, faulted.colors)
        assert faulted.extras.get("fault_immune") is True


class TestProtocolSurface:
    @pytest.mark.parametrize("algorithm", IMMUNE)
    def test_non_protocol_entries_decline_build_nodes(self, algorithm):
        deployment = corpus_deployment(0)
        graph = UnitDiskGraph(deployment.positions, PARAMS.r_t)
        ctx = ProtocolContext(graph=graph, params=PARAMS, seed=0)
        entry = get_algorithm(algorithm)
        with pytest.raises(ConfigurationError, match="state machine"):
            entry.build_nodes(ctx)
        with pytest.raises(ConfigurationError, match="slot budget"):
            entry.slot_budget(ctx)


class TestTaskSurface:
    def test_empty_deployment_rejected(self):
        task = ColoringTask(deployment=np.zeros((0, 2)))
        with pytest.raises(ConfigurationError, match="empty"):
            task.graph()

    def test_default_params_normalise_to_unit_range(self):
        task = ColoringTask(deployment=np.zeros((1, 2)))
        assert task.resolved_params().r_t == 1.0
