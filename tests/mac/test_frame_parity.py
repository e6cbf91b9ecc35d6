"""Every path that plays a TDMA frame reproduces its recorded outputs.

The Theorem 3 audit (``verify_tdma_broadcast``), both Corollary 1
simulators (``simulate_uniform_algorithm``/``simulate_general_algorithm``)
and the simulated palette reduction (``reduce_palette_simulated``) all
play one frame with one color class per slot.  ``fixtures/frame_parity.json``
holds their outputs, and the rows of the experiments built on them, as
recorded before the four loops were folded into one; this test replays
the same calls and requires the same JSON, bit for bit.

The corpus is built by :func:`corpus`; regenerate it only for a change
meant to alter these outputs::

    PYTHONPATH=src python tests/mac/test_frame_parity.py --write
"""

from __future__ import annotations

import json
import pathlib
import sys
import tempfile

from repro import PhysicalParams, uniform_deployment
from repro.algorithms.classical import greedy_coloring
from repro.coloring.palette import reduce_palette_simulated
from repro.experiments import exp05_tdma_mac as exp05
from repro.experiments import exp06_srs_simulation as exp06
from repro.experiments import exp07_palette_reduction as exp07
from repro.experiments import exp10_physical_sweep as exp10
from repro.faults import FaultPlan, MessageFaults, NodeOutage
from repro.graphs.power import power_graph
from repro.graphs.udg import UnitDiskGraph
from repro.invariants import verify_tdma_broadcast
from repro.mac.srs import simulate_general_algorithm, simulate_uniform_algorithm
from repro.mac.tdma import TDMASchedule
from repro.messaging.algorithms import FloodingBroadcast, PairwiseTokenExchange
from repro.telemetry import Telemetry, read_run

FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "frame_parity.json"

#: Drops and an outage window that spans frame boundaries, so the fault
#: clock's absolute slot numbers and the coin draws both show.
FAULTS = FaultPlan(
    outages=(NodeOutage(node=1, start=100, stop=250),),
    messages=MessageFaults(drop=0.1),
)


def _srs(report) -> dict:
    return {
        **report.summary(),
        "outputs": report.outputs,
        "fault_events": report.fault_events,
    }


def _counters(metrics: dict) -> dict:
    return {
        name: snap["value"]
        for name, snap in metrics.items()
        if snap.get("kind") == "counter"
    }


def corpus(tmp: pathlib.Path) -> dict:
    """Every recorded frame-path output, as JSON-ready values."""
    params = PhysicalParams().with_r_t(1.0)
    graph = UnitDiskGraph(uniform_deployment(100, 6.0, seed=24).positions, 1.0)
    tight = greedy_coloring(graph)
    audit = verify_tdma_broadcast(graph, TDMASchedule(tight), params)
    schedule = TDMASchedule(
        greedy_coloring(power_graph(graph, params.mac_distance + 1))
    )

    def flood(**kwargs):
        return simulate_uniform_algorithm(
            graph,
            [FloodingBroadcast(source=0) for _ in range(graph.n)],
            schedule,
            params,
            max_rounds=30,
            **kwargs,
        )

    out = tmp / "srs.jsonl"
    faulted = flood(faults=FAULTS, fault_seed=3, telemetry=Telemetry(out=out))
    artifact = read_run(out)
    general = {
        strategy: _srs(
            simulate_general_algorithm(
                graph,
                [PairwiseTokenExchange() for _ in range(graph.n)],
                schedule,
                params,
                max_rounds=5,
                strategy=strategy,
            )
        )
        for strategy in ("packed", "serial")
    }
    palette = reduce_palette_simulated(graph, tight, params)
    return {
        "exp05": exp05.run(),
        "exp06": exp06.run(),
        "exp07": exp07.run(),
        "exp10": exp10.run(),
        "audit_distance_1": {
            "frame_length": audit.frame_length,
            "expected": audit.expected,
            "delivered": audit.delivered,
            "failures": audit.failures,
        },
        "flooding": _srs(flood()),
        "flooding_faulted": _srs(faulted),
        "flooding_faulted_telemetry": {
            "summary": artifact.summary,
            "counters": _counters(artifact.metrics),
        },
        "general": general,
        "palette_distance_1": {
            "colors": palette.coloring.colors.tolist(),
            "slots_used": palette.slots_used,
            "announcements": palette.announcements,
            "lost": palette.lost,
        },
    }


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def test_frame_paths_match_the_recorded_corpus(tmp_path):
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    assert _canonical(corpus(tmp_path)) == _canonical(recorded)


def test_corpus_exercises_losses_and_faults():
    recorded = json.loads(FIXTURE.read_text(encoding="utf-8"))
    audit = recorded["audit_distance_1"]
    assert audit["delivered"] < audit["expected"]
    assert len(audit["failures"]) == 20
    assert recorded["flooding"]["lost_deliveries"] == 0
    faulted = recorded["flooding_faulted"]
    assert faulted["lost_deliveries"] > 0
    assert faulted["fault_events"]["dropped"] > 0
    assert faulted["fault_events"]["suppressed_transmissions"] > 0
    assert recorded["palette_distance_1"]["lost"] > 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_frame_parity.py --write")
    with tempfile.TemporaryDirectory() as tmp:
        data = corpus(pathlib.Path(tmp))
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(_canonical(data) + "\n", encoding="utf-8")
