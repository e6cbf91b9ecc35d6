"""End-to-end telemetry: instrumented runs, determinism, exact round-trips."""

import numpy as np
import pytest

from repro import PhysicalParams, uniform_deployment
from repro.analysis.protocol_stats import trace_statistics
from repro.algorithms.classical import greedy_coloring
from repro.coloring.runner import run_mw_coloring
from repro.graphs.power import power_graph
from repro.graphs.udg import UnitDiskGraph
from repro.mac.srs import simulate_uniform_algorithm
from repro.mac.tdma import TDMASchedule
from repro.messaging.algorithms import FloodingBroadcast
from repro.messaging.model import UniformAlgorithm
from repro.sinr.channel import SINRChannel, Transmission
from repro.telemetry import MetricsRegistry, Telemetry, read_run


@pytest.fixture(scope="module")
def params():
    return PhysicalParams().with_r_t(1.0)


@pytest.fixture(scope="module")
def deployment():
    return uniform_deployment(n=40, extent=5.0, seed=1)


class TestDeterminism:
    def test_telemetry_does_not_change_the_run(self, deployment, params):
        plain = run_mw_coloring(deployment, params, seed=1)
        telemetry = Telemetry()
        observed = run_mw_coloring(deployment, params, seed=1, telemetry=telemetry)
        assert observed.stats == plain.stats
        assert np.array_equal(observed.coloring.colors, plain.coloring.colors)
        assert np.array_equal(observed.decision_slots, plain.decision_slots)
        # ... while actually collecting telemetry:
        assert telemetry.metrics.counter("sim.slots").value > 0
        assert telemetry.profiler.slots > 0

    def test_disabled_telemetry_also_neutral(self, deployment, params):
        plain = run_mw_coloring(deployment, params, seed=1)
        off = Telemetry(metrics=False, profile=False, trace=False)
        observed = run_mw_coloring(deployment, params, seed=1, telemetry=off)
        assert observed.stats == plain.stats


class Beacon(UniformAlgorithm):
    """Broadcasts in each of ``rounds`` rounds: every frame repeats the
    same sender set in every slot."""

    def __init__(self, rounds: int) -> None:
        self._rounds = rounds
        self._sent = 0

    def send(self, round_index: int) -> str:
        self._sent = round_index + 1
        return "beacon"

    @property
    def halted(self) -> bool:
        return self._sent >= self._rounds


def run_srs(params, telemetry, algorithm=lambda: FloodingBroadcast(source=0)):
    """A 30-node SRS run over one TDMA frame repeated every round."""
    deployment = uniform_deployment(n=30, extent=4.0, seed=5)
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    assert graph.is_connected()
    schedule = TDMASchedule(
        greedy_coloring(power_graph(graph, params.mac_distance + 1))
    )
    return simulate_uniform_algorithm(
        graph,
        [algorithm() for _ in range(graph.n)],
        schedule,
        params,
        max_rounds=50,
        telemetry=telemetry,
    )


class TestDisabledFastPath:
    def test_disabled_metrics_never_attach(self, deployment, params):
        channel = SINRChannel(deployment.positions, params)
        channel.attach_metrics(MetricsRegistry(enabled=False))
        assert channel._m_resolve_seconds is None
        assert channel._engine._m_evals is None
        channel.resolve([Transmission(sender=0, payload="x")])
        # nothing was recorded anywhere

    def test_enabled_metrics_attach_and_count(self, deployment, params):
        channel = SINRChannel(deployment.positions, params)
        registry = MetricsRegistry()
        channel.attach_metrics(registry)
        channel.resolve([Transmission(sender=0, payload="x")])
        snapshot = registry.snapshot()
        assert snapshot["channel.resolve_calls"]["value"] == 1
        assert snapshot["channel.transmissions"]["value"] == 1
        # one (n, 1) distance build for the one-sender slot
        assert snapshot["engine.interference_evaluations"]["value"] == deployment.n

    def test_telemetry_off_bundle_exports_nothing(self, deployment, params):
        telemetry = Telemetry(out=None, metrics=False, profile=False, trace=False)
        run_mw_coloring(deployment, params, seed=1, telemetry=telemetry)
        assert telemetry.metrics.snapshot() == {}
        assert telemetry.profiler is None
        assert telemetry.export("color") is None


class TestJsonlRoundTrip:
    def test_offline_stats_equal_live(self, tmp_path, deployment, params):
        out = tmp_path / "run.jsonl"
        telemetry = Telemetry(out=out, meta={"seed": 1})
        result = run_mw_coloring(deployment, params, seed=1, telemetry=telemetry)

        run = read_run(out)
        assert run.command == "color"
        # the harness names the algorithm; caller meta is kept as given
        assert run.meta == {"seed": 1, "algorithm": "mw"}
        # trace events survive (JSON normalises tuple details to lists)
        assert len(run.trace) == len(result.trace)
        import json

        def normalised(events):
            return [
                (e.slot, e.node, e.kind, json.loads(json.dumps(e.detail)))
                for e in events
            ]

        assert normalised(run.trace.events) == normalised(result.trace.events)
        # protocol statistics recomputed offline match the live aggregation
        assert run.protocol_stats() == trace_statistics(result)
        # summary carries the run's headline numbers
        assert run.summary["slots_run"] == result.stats.slots_run
        assert run.summary["transmissions"] == result.stats.transmissions
        # metrics snapshot agrees with the simulator's own accounting
        assert run.metrics["sim.transmissions"]["value"] == result.stats.transmissions
        assert run.metrics["sim.deliveries"]["value"] == result.stats.deliveries
        # per-slot profiles cover every active slot
        assert run.profile_summary()["slots"] == telemetry.profiler.slots

    def test_srs_export(self, tmp_path, params):
        out = tmp_path / "srs.jsonl"
        report = run_srs(params, Telemetry(out=out))
        run = read_run(out)
        assert run.command == "srs"
        assert run.summary["rounds"] == report.rounds
        assert run.summary["lost_deliveries"] == report.lost_deliveries
        assert run.metrics["srs.rounds"]["value"] == report.rounds
        assert run.delivery_rate is not None

    def test_srs_builds_distances_for_every_resolved_slot(self, params):
        # every non-empty slot of every repeated frame builds its own
        # (n, k) matrix: n * sum(k) evaluations over the whole run
        telemetry = Telemetry()
        report = run_srs(params, telemetry, algorithm=lambda: Beacon(rounds=4))
        assert report.rounds == 4
        snapshot = telemetry.metrics.snapshot()
        sent = snapshot["channel.transmissions"]["value"]
        assert sent > 0
        assert snapshot["engine.interference_evaluations"]["value"] == 30 * sent
