"""The arena's head-to-head table is locked as a committed fixture.

``fixtures/exp14_rows.json`` holds EXP-14's full default sweep
(every registered algorithm x seeds 0-1) captured when the arena was
introduced — the pattern of tests/integration/test_fault_plan_parity.py.
Any drift in a competitor's palette, convergence count or TDMA delivery
rate under the default deployment is a *visible* diff here, not a
silent re-baseline; an intentional algorithm change regenerates the
fixture in the same commit.
"""

from __future__ import annotations

import json
import pathlib

from repro.algorithms import algorithm_names
from repro.experiments import exp14_arena as exp14
from repro.experiments import run_units

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _fixture_rows() -> list[dict]:
    return json.loads(
        (FIXTURES / "exp14_rows.json").read_text(encoding="utf-8")
    )


def _canonical(rows: list[dict]) -> str:
    return json.dumps(rows, sort_keys=True, default=str)


class TestArenaRowLock:
    def test_default_sweep_bit_identical_to_fixture(self):
        rows = run_units(exp14.__name__, exp14.units(seeds=(0, 1)))
        assert _canonical(rows) == _canonical(_fixture_rows())
        exp14.check(rows)

    def test_fixture_covers_the_whole_registry(self):
        # A newly registered algorithm must be re-baselined into the
        # fixture (the default sweep includes it automatically).
        fixture_algorithms = {row["algorithm"] for row in _fixture_rows()}
        assert fixture_algorithms == set(algorithm_names())

    def test_fixture_rows_carry_every_arena_column(self):
        for row in _fixture_rows():
            assert set(exp14.COLUMNS) == set(row)


class TestHeadlineComparisons:
    """The fixture's numbers tell the paper's story; pin the ranking."""

    def test_fp_palette_is_delta_plus_one(self):
        for row in _fixture_rows():
            if row["algorithm"] == "fuchs_prutkin":
                assert row["palette_bound"] == row["delta"] + 1
                assert row["max_color"] <= row["delta"]

    def test_mw_spends_more_colors_than_greedy(self):
        rows = _fixture_rows()
        greedy = {r["seed"]: r["colors"] for r in rows if r["algorithm"] == "greedy"}
        for row in rows:
            if row["algorithm"] == "mw":
                assert row["colors"] >= greedy[row["seed"]]

    def test_every_tdma_frame_delivers(self):
        for row in _fixture_rows():
            assert 0.0 < row["delivery_rate"] <= 1.0
            assert row["frame_slots"] >= row["colors"]
