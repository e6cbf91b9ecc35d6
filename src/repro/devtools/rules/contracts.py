"""Experiment-contract rules (EXP0xx).

The orchestration layer treats every ``experiments/exp*.py`` module as a
plug-in with a fixed surface: presentation metadata (``TITLE``,
``COLUMNS``), the sweep as a unit list (``units()``, which
``run_units`` runs serially and the orchestrator shards) and the claim
check (``check()``).  A module that drifts from the contract still
imports fine — it just breaks ``repro sweep`` at runtime; this rule
moves that discovery to lint time.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..findings import Finding
from ..framework import FileContext, Rule, rule

_REQUIRED = ("TITLE", "COLUMNS", "units", "check")


def _is_experiment_module(ctx: FileContext) -> bool:
    return (
        ctx.name.startswith("exp")
        and ctx.name.endswith(".py")
        and ctx.within("experiments")
    )


def _top_level_names(tree: ast.Module) -> dict[str, ast.stmt]:
    names: dict[str, ast.stmt] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.setdefault(node.name, node)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.setdefault(target.id, node)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.setdefault(node.target.id, node)
    return names


@rule
class ExperimentExports(Rule):
    code = "EXP001"
    name = "experiment modules export the full contract"
    rationale = (
        "generic drivers (CLI, sweep orchestrator, benches) address "
        "every experiment through TITLE/COLUMNS/units/check; "
        "a missing export breaks them at runtime"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not _is_experiment_module(ctx) or ctx.tree is None:
            return
        exported = _top_level_names(ctx.tree)
        for required in _REQUIRED:
            if required not in exported:
                yield self.finding(
                    ctx,
                    ctx.tree,
                    f"experiment module does not define `{required}`; "
                    + self.rationale,
                )
