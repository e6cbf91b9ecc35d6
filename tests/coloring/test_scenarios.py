"""Scenario regression suite for the MW coloring runner.

The scenario table spans the runner's surface: all three channel kinds,
staggered and random wake-up schedules, every fault class (drops,
corruption, node outages, pulsed jammers, slot skew, adversarial
wake-up specs, and a kitchen-sink composition), both constant presets,
and slot-budget cutoffs.  Every scenario is checked for

* **replay identity** — the run is a pure function of its arguments:
  a second run, built from fresh deployment, constants, schedule and
  fault objects, is bit-identical in colors, decision slots, leaders,
  run stats, the full trace and the fault-event counters;
* **internal consistency** — the result's fields agree with each other
  and with the trace: decided nodes are exactly those with a decision
  slot and an ``enter_C`` event in that slot, leaders are the decided
  color-0 nodes, decisions fall inside the slots run, the budget is
  honoured, and fault counters are present exactly when a plan was.

Observers, decision listeners and telemetry are taps: attaching them
must neither perturb the run nor see anything but the run itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from repro.algorithms.mw import mw_run_result
from repro.coloring.runner import (
    build_constants,
    default_max_slots,
    run_mw_coloring,
)
from repro.faults.plan import (
    FaultPlan,
    Jammer,
    MessageFaults,
    NodeOutage,
    SlotSkew,
    WakeupSpec,
)
from repro.geometry.deployment import uniform_deployment
from repro.graphs.udg import UnitDiskGraph
from repro.invariants import IndependenceAuditor
from repro.simulation.scheduler import WakeupSchedule
from repro.sinr.params import PhysicalParams
from repro.telemetry import Telemetry

N = 12
DEPLOYMENT_SPECS = {
    "sparse": dict(n=N, extent=3.2, seed=5),
    "mid": dict(n=N, extent=2.4, seed=17),
    "dense": dict(n=N, extent=1.6, seed=29),
}


@dataclass(frozen=True)
class Scenario:
    """One runner configuration."""

    name: str
    dep: str
    seed: int
    channel: str = "sinr"
    schedule: tuple | None = None  # ("staggered", interval) | ("random", d, s)
    faults: str | None = None  # key into FAULT_PLANS
    preset: str = "practical"
    max_slots: int | None = None


def _drop() -> FaultPlan:
    return FaultPlan(messages=MessageFaults(drop=0.15))


def _corrupt() -> FaultPlan:
    return FaultPlan(messages=MessageFaults(corrupt=0.2))


def _lossy() -> FaultPlan:
    return FaultPlan(messages=MessageFaults(drop=0.1, corrupt=0.1))


def _outages() -> FaultPlan:
    return FaultPlan(
        outages=[NodeOutage(node=0, start=100), NodeOutage(node=3, start=50, stop=400)]
    )


def _jammer() -> FaultPlan:
    return FaultPlan(
        jammers=[Jammer(x=1.0, y=1.0, power=50.0, start=0, period=20, duty=5)]
    )


def _skew() -> FaultPlan:
    return FaultPlan(
        skews=[SlotSkew(node=1, period=4), SlotSkew(node=6, period=9, phase=2)]
    )


def _wake_random() -> FaultPlan:
    return FaultPlan(wakeup=WakeupSpec(pattern="random", max_delay=120))


def _wake_bursts() -> FaultPlan:
    return FaultPlan(wakeup=WakeupSpec(pattern="bursts", interval=40, burst=3))


def _everything() -> FaultPlan:
    return FaultPlan(
        outages=[NodeOutage(node=2, start=200, stop=600)],
        jammers=[Jammer(x=0.5, y=0.5, power=30.0, start=100, period=15, duty=4)],
        messages=MessageFaults(drop=0.05, corrupt=0.05),
        skews=[SlotSkew(node=4, period=6)],
        wakeup=WakeupSpec(pattern="staggered", interval=9),
        seed=99,
    )


FAULT_PLANS = {
    "drop": _drop,
    "corrupt": _corrupt,
    "lossy": _lossy,
    "outages": _outages,
    "jammer": _jammer,
    "skew": _skew,
    "wakespec-random": _wake_random,
    "wakespec-bursts": _wake_bursts,
    "everything": _everything,
}


def _scenarios() -> list[Scenario]:
    scenarios: list[Scenario] = []
    # Clean SINR runs: every deployment x four seeds.
    for dep in DEPLOYMENT_SPECS:
        for seed in range(4):
            scenarios.append(Scenario(f"clean-{dep}-s{seed}", dep, seed))
    # Alternate channel models.
    for kind in ("graph", "collision_free"):
        for dep in ("sparse", "dense"):
            for seed in (4, 5, 6):
                scenarios.append(
                    Scenario(f"{kind}-{dep}-s{seed}", dep, seed, channel=kind)
                )
    # Staggered wake-ups at three intervals.
    for interval in (1, 7, 31):
        for seed in (7, 8):
            scenarios.append(
                Scenario(
                    f"staggered{interval}-s{seed}",
                    "mid",
                    seed,
                    schedule=("staggered", interval),
                )
            )
    # Uniform-random wake-ups.
    for max_delay, sched_seed in ((60, 3), (300, 9)):
        for seed in (9, 10):
            scenarios.append(
                Scenario(
                    f"random{max_delay}-s{seed}",
                    "mid",
                    seed,
                    schedule=("random", max_delay, sched_seed),
                )
            )
    # Every fault class, two seeds each.
    for label in FAULT_PLANS:
        for seed in (11, 12):
            scenarios.append(
                Scenario(f"fault-{label}-s{seed}", "mid", seed, faults=label)
            )
    # Theoretical constants (the slot budget keeps the suite fast; the
    # cutoff itself is part of the surface).
    for seed in (13, 14):
        scenarios.append(
            Scenario(
                f"theoretical-s{seed}", "sparse", seed, preset="theoretical",
                max_slots=500,
            )
        )
    # Budget cutoffs, including the degenerate one-slot budget.
    for seed in (15, 16):
        scenarios.append(Scenario(f"budget300-s{seed}", "mid", seed, max_slots=300))
    scenarios.append(Scenario("budget1", "mid", 17, max_slots=1))
    # Cross-feature combinations.
    for seed in (18, 19):
        scenarios.append(
            Scenario(
                f"staggered-drop-s{seed}",
                "dense",
                seed,
                schedule=("staggered", 5),
                faults="drop",
            )
        )
    for seed in (20, 21):
        scenarios.append(
            Scenario(
                f"graph-lossy-s{seed}", "sparse", seed, channel="graph",
                faults="lossy",
            )
        )
    return scenarios


SCENARIOS = _scenarios()
BY_NAME = {scenario.name: scenario for scenario in SCENARIOS}
NAMES = [scenario.name for scenario in SCENARIOS]
assert len(BY_NAME) == len(SCENARIOS) >= 60, len(SCENARIOS)


def _run(scenario: Scenario):
    """Run one scenario from freshly built inputs (nothing shared)."""
    params = PhysicalParams().with_r_t(1.0)
    deployment = uniform_deployment(**DEPLOYMENT_SPECS[scenario.dep])
    graph = UnitDiskGraph(deployment.positions, params.r_t)
    constants = build_constants(scenario.preset, graph, params, N)
    schedule = None
    if scenario.schedule is not None:
        if scenario.schedule[0] == "staggered":
            schedule = WakeupSchedule.staggered(N, interval=scenario.schedule[1])
        else:
            schedule = WakeupSchedule.uniform_random(
                N, max_delay=scenario.schedule[1], seed=scenario.schedule[2]
            )
    faults = FAULT_PLANS[scenario.faults]() if scenario.faults else None
    return run_mw_coloring(
        deployment,
        seed=scenario.seed,
        constants=constants,
        schedule=schedule,
        channel=scenario.channel,
        max_slots=scenario.max_slots,
        trace=True,
        faults=faults,
    )


@pytest.fixture(scope="module")
def reference_runs():
    return {scenario.name: _run(scenario) for scenario in SCENARIOS}


def _assert_identical(expected, actual) -> None:
    assert np.array_equal(expected.coloring.colors, actual.coloring.colors)
    assert np.array_equal(expected.decision_slots, actual.decision_slots)
    assert np.array_equal(expected.leaders, actual.leaders)
    assert expected.stats == actual.stats
    assert expected.trace.events == actual.trace.events
    assert expected.fault_events == actual.fault_events
    assert expected.audit_violations == actual.audit_violations


class TestReplayIdentity:
    @pytest.mark.parametrize("name", NAMES)
    def test_bit_identical(self, name, reference_runs):
        _assert_identical(reference_runs[name], _run(BY_NAME[name]))


class TestConsistency:
    @pytest.mark.parametrize("name", NAMES)
    def test_fields_agree(self, name, reference_runs):
        scenario = BY_NAME[name]
        result = reference_runs[name]
        stats = result.stats
        colors = result.coloring.colors
        slots = result.decision_slots
        assert len(colors) == len(slots) == result.n == N

        decided = slots >= 0
        assert stats.decided_count == int(decided.sum())
        if stats.completed:
            assert decided.all()
        budget = scenario.max_slots or default_max_slots(result.constants)
        assert 0 < stats.slots_run <= budget
        assert (slots[decided] < stats.slots_run).all()
        assert 0 <= stats.deliveries
        assert 0 <= stats.transmissions

        assert np.array_equal(result.leaders, np.flatnonzero(decided & (colors == 0)))
        decisions = result.trace.of_kind("enter_C")
        assert sorted(event.node for event in decisions) == np.flatnonzero(
            decided
        ).tolist()
        for event in decisions:
            assert event.slot == slots[event.node]

        assert (result.fault_events is None) == (scenario.faults is None)

    def test_fault_scenarios_record_events(self, reference_runs):
        # The fault counters compared above are not vacuous: some faulted
        # scenario actually injected something.
        assert any(
            reference_runs[s.name].fault_events
            and any(reference_runs[s.name].fault_events.values())
            for s in SCENARIOS
            if s.faults is not None
        )

    def test_budget_cutoffs_cut(self, reference_runs):
        for name in ("budget1", "theoretical-s13", "theoretical-s14"):
            stats = reference_runs[name].stats
            assert not stats.completed
            assert stats.slots_run == BY_NAME[name].max_slots

    def test_clean_sinr_runs_are_clean(self, reference_runs):
        for scenario in SCENARIOS:
            if scenario.name.startswith("clean-"):
                outcome = mw_run_result(reference_runs[scenario.name])
                assert outcome.clean, scenario.name

    def test_staggered_scenarios_stagger(self, reference_runs):
        wakes = reference_runs["staggered31-s7"].trace.of_kind("enter_A")
        assert wakes and wakes[0].slot != wakes[-1].slot


SEEDS = (2, 9, 14)


@pytest.fixture(scope="module")
def deployment():
    return uniform_deployment(**DEPLOYMENT_SPECS["mid"])


class RowObserver:
    """Records every on_slot_end call it receives, verbatim."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, tuple, tuple]] = []

    def on_slot_end(self, slot, transmissions, deliveries) -> None:
        senders = tuple(t.sender for t in transmissions)
        receivers = tuple(d.receiver for d in deliveries)
        self.rows.append((slot, senders, receivers))


class TestObservers:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_observer_sees_the_whole_run(self, deployment, seed):
        observer = RowObserver()
        result = run_mw_coloring(deployment, seed=seed, observers=[observer])
        slots = [row[0] for row in observer.rows]
        assert slots == sorted(set(slots))
        assert slots[-1] < result.stats.slots_run
        assert sum(len(row[1]) for row in observer.rows) == result.stats.transmissions
        assert sum(len(row[2]) for row in observer.rows) == result.stats.deliveries

    def test_observer_streams_replay(self, deployment):
        first, second = RowObserver(), RowObserver()
        schedule = WakeupSchedule.staggered(N, interval=3)
        for observer in (first, second):
            run_mw_coloring(
                deployment, seed=SEEDS[0], schedule=schedule, observers=[observer]
            )
        assert first.rows and first.rows == second.rows

    def test_taps_do_not_perturb_the_run(self, deployment):
        for seed in SEEDS:
            bare = run_mw_coloring(deployment, seed=seed, trace=True)
            tapped = run_mw_coloring(
                deployment,
                seed=seed,
                trace=True,
                observers=[RowObserver()],
                decision_listeners=[lambda slot, node, color: None],
            )
            _assert_identical(bare, tapped)


class TestAuditorAttachment:
    def test_listener_auditor_matches_the_audited_runner(self, deployment):
        for seed in SEEDS:
            auditor = IndependenceAuditor(
                positions=deployment.positions, radius=1.0
            )
            result = run_mw_coloring(
                deployment, seed=seed, decision_listeners=[auditor.on_decision]
            )
            assert auditor.decisions_audited == int((result.decision_slots >= 0).sum())
            assert auditor.violations == list(result.audit_violations)
            assert auditor.clean

    def test_reusing_one_auditor_across_runs_merges_them(self, deployment):
        # An auditor accumulates its membership table across calls, so
        # one instance must audit exactly one run: reused, it counts the
        # decisions of every run it watched.
        result = run_mw_coloring(deployment, seed=SEEDS[0])
        shared = IndependenceAuditor(
            positions=result.graph.positions, radius=result.graph.radius
        )
        for seed in SEEDS:
            run_mw_coloring(
                deployment, seed=seed, decision_listeners=[shared.on_decision]
            )
        assert shared.decisions_audited > int((result.decision_slots >= 0).sum())


def _strip_timing(snapshot: dict) -> dict:
    """Drop wall-clock histograms — the only legitimately non-reproducible metrics."""
    return {k: v for k, v in snapshot.items() if not k.endswith("_seconds")}


class TestTelemetryReplay:
    @pytest.mark.parametrize(
        "seed,faults",
        [(6, None), (3, FaultPlan(messages=MessageFaults(drop=0.1)))],
        ids=["clean", "faulty"],
    )
    def test_counters_replay(self, deployment, seed, faults):
        bundles = [Telemetry(metrics=True, profile=False, trace=True) for _ in range(2)]
        runs = [
            run_mw_coloring(deployment, seed=seed, telemetry=bundle, faults=faults)
            for bundle in bundles
        ]
        _assert_identical(*runs)
        first, second = (bundle.metrics.snapshot() for bundle in bundles)
        assert _strip_timing(first) == _strip_timing(second)
        # Timing histograms are recorded on both sides (same keys); their
        # values are wall-clock and therefore not compared.
        assert set(first) == set(second)

    def test_telemetry_does_not_perturb_the_run(self, deployment):
        bare = run_mw_coloring(deployment, seed=6, trace=True)
        telemetry = Telemetry(metrics=True, profile=True, trace=True)
        observed = run_mw_coloring(
            deployment, seed=6, trace=True, telemetry=telemetry
        )
        _assert_identical(bare, observed)
