"""Determinism regressions for every zoo entry.

Each registered algorithm must be bit-identical across (a) repeated
runs of the same task, (b) telemetry attached vs. absent — metrics are
strictly read-only over a run, and (c) the serial experiment runner vs.
``repro sweep --jobs 2`` sharding of the same arena grid.

Algorithms come from the registry, so a new entry inherits all three
contracts by registering.  MW, the one entry with a sparse SINR path
(``run_mw_coloring(resolver="sparse")``), must also match the dense
resolver bit for bit in the all-near regime where the two engines are
exactly equal (the idiom of tests/coloring/test_runner.py).
"""

from __future__ import annotations

import json

import pytest

from repro.algorithms import (
    algorithm_names,
    all_algorithms,
    run_coloring_algorithm,
)
from repro.coloring.runner import run_mw_coloring
from repro.experiments import exp14_arena as exp14
from repro.experiments import run_units
from repro.geometry.deployment import uniform_deployment
from repro.orchestration import merged_rows, run_sharded
from repro.telemetry import Telemetry, read_run

from .conftest import PARAMS, corpus_deployment

ALGORITHMS = algorithm_names()
PROTOCOLS = tuple(
    entry.name for entry in all_algorithms() if entry.model == "sinr-protocol"
)
#: Small enough that every pair sits inside the interference range, the
#: regime where the sparse resolver equals the dense one bit for bit.
ALL_NEAR = dict(n=14, extent=2.2, seed=3)


def fingerprint(outcome) -> tuple:
    return (
        outcome.algorithm,
        outcome.colors.tolist(),
        outcome.decision_slots.tolist(),
        outcome.palette_bound,
        outcome.completed,
        outcome.convergence_slots,
        tuple(outcome.audit_violations or ()),
    )


def canonical(rows: list[dict]) -> str:
    ordered = sorted(rows, key=lambda row: (row["algorithm"], row["seed"]))
    return json.dumps(ordered, sort_keys=True, default=str)


class TestRepeatRunIdentity:
    @pytest.mark.parametrize("seed", (0, 1))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_same_task_same_bits(self, algorithm, seed):
        deployment = corpus_deployment(seed)
        first = run_coloring_algorithm(
            algorithm, deployment, PARAMS, seed=seed
        )
        second = run_coloring_algorithm(
            algorithm, deployment, PARAMS, seed=seed
        )
        assert fingerprint(first) == fingerprint(second)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_seed_actually_binds(self, algorithm, arena_run):
        # Not a vacuous contract: some pair of corpus seeds must differ
        # (different deployments if nothing else).
        prints = [
            fingerprint(arena_run(algorithm, seed)) for seed in (0, 1, 2)
        ]
        assert any(prints[0] != other for other in prints[1:])


class TestTelemetryTransparency:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_metrics_attachment_changes_nothing(self, algorithm, arena_run):
        seed = 4
        bare = arena_run(algorithm, seed)
        bundle = Telemetry(metrics=True, profile=False, trace=False)
        observed = run_coloring_algorithm(
            algorithm, corpus_deployment(seed), PARAMS,
            seed=seed, telemetry=bundle,
        )
        assert fingerprint(bare) == fingerprint(observed)

    @pytest.mark.parametrize("algorithm", PROTOCOLS)
    def test_protocol_runs_label_their_telemetry(self, algorithm):
        bundle = Telemetry(metrics=True, profile=False, trace=False)
        run_coloring_algorithm(
            algorithm, corpus_deployment(5), PARAMS, seed=5, telemetry=bundle,
        )
        assert bundle.meta["algorithm"] == algorithm
        snapshot = bundle.metrics.snapshot()
        assert snapshot["coloring.decisions"]["value"] == 20

    def test_mw_artifact_names_its_algorithm(self, tmp_path):
        # the label must be set before the run exports its artifact
        out = tmp_path / "mw.jsonl"
        run_coloring_algorithm(
            "mw", uniform_deployment(40, 4.0, seed=3), seed=1,
            telemetry=Telemetry(out=out),
        )
        assert read_run(out).meta["algorithm"] == "mw"

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_library_run_writes_its_artifact(self, algorithm, tmp_path):
        out = tmp_path / f"{algorithm}.jsonl"
        outcome = run_coloring_algorithm(
            algorithm, uniform_deployment(40, 4.0, seed=3), seed=1,
            telemetry=Telemetry(out=out),
        )
        artifact = read_run(out)
        assert artifact.meta["algorithm"] == algorithm
        assert artifact.summary["n"] == outcome.n == 40


def mw_fingerprint(result) -> tuple:
    return (
        result.coloring.colors.tolist(),
        result.decision_slots.tolist(),
        result.leaders.tolist(),
        result.palette_bound,
        result.stats.completed,
        result.slots_to_complete,
    )


class TestResolverParity:
    def test_sparse_equals_dense_when_all_near(self):
        deployment = uniform_deployment(**ALL_NEAR)
        dense = run_mw_coloring(deployment, PARAMS, seed=7, resolver="dense")
        sparse = run_mw_coloring(deployment, PARAMS, seed=7, resolver="sparse")
        assert mw_fingerprint(dense) == mw_fingerprint(sparse)

    def test_sparse_repeats_bit_identical(self):
        deployment = corpus_deployment(6)
        runs = [
            run_mw_coloring(deployment, PARAMS, seed=6, resolver="sparse")
            for _ in range(2)
        ]
        assert mw_fingerprint(runs[0]) == mw_fingerprint(runs[1])

    def test_mw_entry_is_the_dense_run(self):
        """The arena's ``mw`` row comes from the dense runner it wraps."""
        deployment = uniform_deployment(**ALL_NEAR)
        entry = run_coloring_algorithm("mw", deployment, PARAMS, seed=7)
        dense = run_mw_coloring(deployment, PARAMS, seed=7)
        assert entry.decision_slots.tolist() == dense.decision_slots.tolist()
        assert entry.palette_bound == dense.palette_bound


class TestSerialVsShardedSweep:
    SWEEP = dict(seeds=[0, 1], n=14, extent=2.6)
    SUBSET = "fuchs_prutkin,greedy,kuhn_multicolor"

    def test_jobs2_rows_match_serial_rows(self):
        serial = run_units(
            exp14.__name__, exp14.units(algorithm=self.SUBSET, **self.SWEEP)
        )
        sharded = run_sharded(
            "exp14", jobs=2,
            unit_kwargs=dict(self.SWEEP),
            algorithm=self.SUBSET,
        )
        assert sharded.complete
        assert canonical(merged_rows(sharded)) == canonical(serial)
        exp14.check(merged_rows(sharded))

    def test_algorithm_selector_distinguishes_config_hashes(self):
        plans = {
            selector: run_sharded(
                "exp14", jobs=1,
                unit_kwargs=dict(seeds=[0], n=12, extent=2.4),
                algorithm=selector,
            ).config_hash
            for selector in ("greedy", "luby", "greedy,luby")
        }
        assert len(set(plans.values())) == 3
