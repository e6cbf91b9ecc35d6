"""Rule-framework tests: registry, context scoping, noqa, pseudo-codes."""

from __future__ import annotations

import ast
import pathlib

import pytest

from repro.devtools import Finding, FileContext, Rule, all_rules, lint_file
from repro.devtools.framework import (
    PARSE_ERROR,
    RULE_ERROR,
    dotted_name,
    iter_python_files,
    rule,
)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def _context(relpath: str, source: str) -> FileContext:
    return FileContext(pathlib.Path(relpath), relpath, source)


class TestFileContext:
    def test_parts_and_name(self):
        ctx = _context("src/repro/coloring/palette.py", "x = 1\n")
        assert ctx.parts == ("src", "repro", "coloring", "palette.py")
        assert ctx.name == "palette.py"

    def test_within_matches_directories_not_filename(self):
        ctx = _context("src/repro/telemetry/jsonl.py", "x = 1\n")
        assert ctx.within("telemetry")
        assert ctx.within("nosuch", "repro")
        assert not ctx.within("jsonl.py")  # the filename is not a directory

    def test_is_file_with_and_without_under(self):
        ctx = _context("src/repro/simulation/rng.py", "x = 1\n")
        assert ctx.is_file("rng.py")
        assert ctx.is_file("rng.py", under="simulation")
        assert not ctx.is_file("rng.py", under="coloring")
        assert not ctx.is_file("other.py")

    def test_parse_error_recorded_not_raised(self):
        ctx = _context("bad.py", "def broken(:\n")
        assert ctx.tree is None
        assert ctx.parse_error is not None
        assert list(ctx.walk()) == []

    def test_suppressed_codes_parsing(self):
        source = (
            "a = 1  # repro: noqa[RNG001]\n"
            "b = 2  # repro: noqa[DET003, RNG001] reason text\n"
            "c = 3  # noqa\n"
        )
        ctx = _context("x.py", source)
        assert ctx.suppressed_codes(1) == {"RNG001"}
        assert ctx.suppressed_codes(2) == {"DET003", "RNG001"}
        assert ctx.suppressed_codes(3) == frozenset()
        assert ctx.suppressed_codes(99) == frozenset()


class TestRegistry:
    def test_all_rules_sorted_and_unique(self):
        rules = all_rules()
        codes = [item.code for item in rules]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))
        # the shipped catalogue
        assert {
            "RNG001", "RNG002", "RNG003",
            "DET001", "DET002", "DET003", "DET004",
            "EXP001",
            "TEL001", "ERR001", "ERR002", "FUT001",
        } <= set(codes)

    def test_rejects_malformed_code(self):
        with pytest.raises(ValueError, match="ABC123"):
            @rule
            class Bad(Rule):  # pragma: no cover - class body only
                code = "bad"

                def check(self, ctx):
                    return iter(())

    def test_rejects_duplicate_code(self):
        existing = all_rules()[0].code
        with pytest.raises(ValueError, match="duplicate"):
            @rule
            class Clash(Rule):  # pragma: no cover - class body only
                code = existing

                def check(self, ctx):
                    return iter(())


class TestDottedName:
    def test_chains(self):
        assert dotted_name(ast.parse("a.b.c", mode="eval").body) == "a.b.c"
        assert dotted_name(ast.parse("name", mode="eval").body) == "name"
        assert dotted_name(ast.parse("f().x", mode="eval").body) is None


class TestLintFile:
    def test_parse_error_is_lnt001(self):
        findings, suppressed = lint_file(
            FIXTURES / "broken_syntax.py", FIXTURES, rules=[]
        )
        assert [f.code for f in findings] == [PARSE_ERROR]
        assert suppressed == 0

    def test_crashing_rule_is_lnt002_not_fatal(self):
        class Explodes(Rule):
            code = "ZZZ999"
            name = "always crashes"
            rationale = "test double"

            def check(self, ctx):
                raise RuntimeError("boom")
                yield  # pragma: no cover

        findings, _ = lint_file(
            FIXTURES / "clean_module.py", FIXTURES, rules=[Explodes()]
        )
        assert [f.code for f in findings] == [RULE_ERROR]
        assert "ZZZ999" in findings[0].message
        assert "boom" in findings[0].message

    def test_noqa_suppresses_and_is_counted(self):
        findings, suppressed = lint_file(FIXTURES / "noqa_ok.py", FIXTURES)
        assert findings == []
        assert suppressed == 2  # RNG001 on the import, DET003 on popitem


class TestFinding:
    def test_render_and_json_round_trip(self):
        finding = Finding(
            path="src/x.py", line=3, col=5, code="RNG001", message="nope"
        )
        assert finding.render() == "src/x.py:3:5: RNG001 nope"
        assert Finding.from_json(finding.to_json()) == finding

    def test_sort_order_is_path_then_line(self):
        later = Finding(path="b.py", line=1, col=1, code="AAA111", message="m")
        earlier = Finding(path="a.py", line=9, col=1, code="ZZZ999", message="m")
        assert sorted([later, earlier]) == [earlier, later]


class TestIterPythonFiles:
    def test_skips_caches_and_recurses(self, tmp_path):
        (tmp_path / "pkg" / "__pycache__").mkdir(parents=True)
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "__pycache__" / "mod.py").write_text("x = 1\n")
        (tmp_path / "pkg" / "note.txt").write_text("not python\n")
        files = iter_python_files([tmp_path])
        assert files == [tmp_path / "pkg" / "mod.py"]

    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            iter_python_files([tmp_path / "nope"])
