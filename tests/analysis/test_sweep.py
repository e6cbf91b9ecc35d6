"""Unit tests for the sweep: canonical order and the serial runner."""

from repro.analysis.sweep import enumerate_combos
from repro.experiments import run_units
from repro.experiments._units import grid_units

#: Output of the pre-refactor serial sweep (captured before
#: ``enumerate_combos`` was factored out) for the scenario exercised by
#: ``test_serial_output_bit_identical`` — the refactor must not move a row.
GOLDEN_ROWS = [
    {"a": 1, "b": "x", "seed": 0, "v": 10},
    {"a": 1, "b": "x", "seed": 1, "v": 11},
    {"a": 1, "b": "y", "seed": 0, "v": 10, "tag": "first"},
    {"a": 1, "b": "y", "seed": 0, "v": -1, "tag": "second"},
    {"a": 1, "b": "y", "seed": 1, "v": 11, "tag": "first"},
    {"a": 1, "b": "y", "seed": 1, "v": -1, "tag": "second"},
    {"a": 2, "b": "x", "seed": 0, "v": 20},
    {"a": 2, "b": "y", "seed": 0, "v": 20, "tag": "first"},
    {"a": 2, "b": "y", "seed": 0, "v": -1, "tag": "second"},
]


# Unit functions: run_units resolves a unit's ``func`` as an attribute of
# the module it is given, here this test module.

def product_row(seed, a, b):
    return {"a": a, "b": b, "seed": seed, "value": a * b + seed}


def skip_first(seed, a):
    return None if a == 1 else {"v": a}


def two_parts(seed, a):
    return [{"a": a, "part": 0}, {"a": a, "part": 1}]


def golden(seed, a, b):
    if a == 2 and seed == 1:
        return None
    head = {"a": a, "b": b, "seed": seed}
    if b == "y":
        return [{**head, "v": a * 10 + seed, "tag": "first"},
                {**head, "v": -1, "tag": "second"}]
    return {**head, "v": a * 10 + seed}


class TestSweep:
    """The serial sweep is ``run_units`` over ``grid_units``."""

    def test_cross_product_with_seeds(self):
        rows = run_units(
            __name__,
            grid_units("product_row", {"a": [1, 2], "b": [10]}, [0, 1]),
        )
        assert len(rows) == 4
        assert rows[0] == {"a": 1, "b": 10, "seed": 0, "value": 10}
        assert rows[-1] == {"a": 2, "b": 10, "seed": 1, "value": 21}

    def test_none_skips(self):
        rows = run_units(__name__, grid_units("skip_first", {"a": [1, 2]}, [0]))
        assert rows == [{"v": 2}]

    def test_list_of_rows_flattened(self):
        rows = run_units(__name__, grid_units("two_parts", {"a": [5]}, [0]))
        assert len(rows) == 2
        assert all(r["a"] == 5 for r in rows)
        assert [r["part"] for r in rows] == [0, 1]

    def test_serial_output_bit_identical(self):
        """The unit path must not change the serial sweep's output.

        GOLDEN_ROWS was captured from the pre-refactor implementation:
        same rows, same key order within each row, same row order.
        """
        units = grid_units("golden", {"a": [1, 2], "b": ["x", "y"]}, [0, 1])
        rows = run_units(__name__, units)
        assert rows == GOLDEN_ROWS
        # bit-identical, not merely equal: key insertion order preserved
        assert [list(r.items()) for r in rows] == [
            list(r.items()) for r in GOLDEN_ROWS
        ]


class TestEnumerateCombos:
    def test_canonical_order_matches_sweep(self):
        combos = list(enumerate_combos({"a": [1, 2], "b": ["x"]}, seeds=[0, 1]))
        assert combos == [
            ({"a": 1, "b": "x"}, 0),
            ({"a": 1, "b": "x"}, 1),
            ({"a": 2, "b": "x"}, 0),
            ({"a": 2, "b": "x"}, 1),
        ]

    def test_empty_grid_yields_seed_only_units(self):
        assert list(enumerate_combos({}, seeds=[3, 4])) == [({}, 3), ({}, 4)]

    def test_combos_are_fresh_dicts(self):
        combos = list(enumerate_combos({"a": [1]}, seeds=[0, 1]))
        combos[0][0]["a"] = 99
        assert combos[1][0]["a"] == 1
