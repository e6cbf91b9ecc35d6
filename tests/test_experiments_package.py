"""Tests for the programmatic experiments layer.

Full sweeps are the benches' business; here we check the package contract
(registry completeness, module interface) and run the two cheapest
experiments end to end through the library API.
"""

import pytest

from repro.experiments import REGISTRY
from repro.experiments import exp05_tdma_mac, exp07_palette_reduction


class TestRegistry:
    def test_all_fourteen_experiments_registered(self):
        assert set(REGISTRY) == {f"exp{i}" for i in range(1, 15)}

    @pytest.mark.parametrize("exp_id", sorted(REGISTRY))
    def test_module_interface(self, exp_id):
        module = REGISTRY[exp_id]
        assert isinstance(module.TITLE, str) and module.TITLE
        assert isinstance(module.COLUMNS, list) and module.COLUMNS
        assert callable(module.units)
        assert callable(module.run_single)
        assert callable(module.check)

    @pytest.mark.parametrize("exp_id", sorted(REGISTRY))
    def test_check_rejects_empty(self, exp_id):
        with pytest.raises(AssertionError):
            REGISTRY[exp_id].check([])


class TestEndToEnd:
    def test_exp5_via_library(self):
        rows = exp05_tdma_mac.run_single(seed=0)
        exp05_tdma_mac.check(rows)
        assert {row["scheme"] for row in rows} == {
            "tdma-dist-1",
            "tdma-dist-2",
            f"tdma-dist-{rows[2]['scheme'].split('-')[-1]}",
            "slotted-aloha",
        }

    def test_exp7_via_library(self):
        rows = [exp07_palette_reduction.run_single(seed=0)]
        exp07_palette_reduction.check(rows)
        assert set(exp07_palette_reduction.COLUMNS) <= set(rows[0])

    def test_exp5_columns_cover_rows(self):
        rows = exp05_tdma_mac.run_single(seed=1)
        for row in rows:
            assert set(exp05_tdma_mac.COLUMNS) <= set(row)
