"""API surface drift: API001–API002.

``docs/API.md`` is the contract readers program against; ``__all__``
is the contract the package exports.  Both rot independently of the
code that keeps the tests green, so the deep pass cross-checks them:

* ``API001`` — a documented entry (the ``**`symbol(...)`**`` headers)
  names a symbol no program module defines, imports or re-exports any
  more: documentation for deleted code.
* ``API002`` — a public symbol (listed in some module's ``__all__``,
  not underscore-prefixed) is neither mentioned in ``docs/API.md`` nor
  referenced anywhere outside its defining module — including tests,
  tools, examples and benchmarks: dead public surface.  Either document
  it or stop exporting it.  A subpackage of a shipped package
  (``repro.<name>``, reported at its ``__init__.py``) that
  ``docs/API.md`` never names is the same defect one level up: a whole
  subsystem no reader can discover.

Matching is deliberately conservative in the flagging direction:
references are *token-level* (a mention in a comment or docstring
counts), so a symbol is only called dead when the whole repository is
silent about it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from ..findings import Finding
from . import DeepRule, deep_rule
from .graph import ProgramContext

#: The documented-entry headers: ``**`symbol(...)`**`` (possibly multiline).
_ENTRY_RE = re.compile(r"\*\*`([^`]+)`\*\*", re.DOTALL)
_IDENTIFIER_RE = re.compile(r"\s*([A-Za-z_][A-Za-z0-9_.]*)")
_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
#: Fenced code blocks — stripped before pairing single backticks (a
#: fence's triple ticks would misalign every inline span after it).
_FENCE_RE = re.compile(r"^```.*?^```[^\n]*$", re.DOTALL | re.MULTILINE)

#: Repository directories scanned (textually) for symbol references.
_REFERENCE_DIRS = ("tests", "tools", "examples", "benchmarks")


def _symbol_in_module(program: ProgramContext, module: str, name: str) -> bool:
    mod = program.modules.get(module)
    if mod is None:
        return False
    return (
        name in mod.defs
        or name in mod.assigns
        or name in mod.imports
        or program.resolve_binding(module, name) is not None
    )


def _exists(program: ProgramContext, name: str) -> bool:
    """Does the documented ``name`` resolve to anything in the program?"""
    if name in program.modules:
        return True
    parts = name.split(".")
    if len(parts) == 1:
        return any(
            _symbol_in_module(program, module, name)
            for module in program.modules
        )
    # module-qualified form: longest module prefix wins
    for split in range(len(parts) - 1, 0, -1):
        module = ".".join(parts[:split])
        if module in program.modules:
            return _attr_chain_exists(program, module, parts[split:])
    # bare ``Class.method`` form: resolve the head in any module
    head, rest = parts[0], parts[1:]
    return any(
        _symbol_in_module(program, module, head)
        and _attr_chain_exists(program, module, parts)
        for module in program.modules
    )


def _attr_chain_exists(
    program: ProgramContext, module: str, chain: list[str]
) -> bool:
    if not chain:
        return True
    if not _symbol_in_module(program, module, chain[0]):
        return False
    if len(chain) == 1:
        return True
    resolved = program.resolve_binding(module, chain[0])
    if resolved is None:
        return True  # defined but opaque (e.g. a constant): trust the doc
    kind, target = resolved
    if kind == "module":
        return _attr_chain_exists(program, target, chain[1:])
    cls = program.classes.get(target)
    if cls is None:
        return True  # a function/constant with attribute access: opaque
    attr = chain[1]
    if attr in cls.methods:
        return True
    return any(
        isinstance(stmt, (ast.Assign, ast.AnnAssign))
        and any(
            isinstance(t, ast.Name) and t.id == attr
            for t in (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
        )
        for stmt in cls.node.body
    )


def _token_owners(program: ProgramContext) -> dict[str, set[str]]:
    """token → the set of sources mentioning it (one scan for all modules).

    Program modules are keyed by module name so a symbol's own module can
    be excluded; reference-directory files are keyed by path (never
    excluded).
    """
    owners: dict[str, set[str]] = {}
    for mod in program.modules.values():
        for token in set(_TOKEN_RE.findall(mod.ctx.source)):
            owners.setdefault(token, set()).add(mod.name)
    for directory in _REFERENCE_DIRS:
        base = program.root / directory
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            if any(
                part.startswith(".") or part == "__pycache__"
                for part in path.parts
            ):
                continue
            source = path.read_text(encoding="utf-8")
            for token in set(_TOKEN_RE.findall(source)):
                owners.setdefault(token, set()).add(str(path))
    return owners


@deep_rule
class ApiDrift(DeepRule):
    code = "API001"
    name = "docs/API.md entry for a deleted symbol (API002: dead export)"
    rationale = (
        "the API document and __all__ are the public contract; an entry "
        "for deleted code misleads users, an undocumented unreferenced "
        "export is surface nobody can discover or rely on"
    )

    extra_codes = ("API002",)

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        api_path = program.root / "docs" / "API.md"
        if not api_path.is_file():
            return
        text = api_path.read_text(encoding="utf-8")

        # code fences count as documentation too (import examples), but
        # must not take part in inline-backtick pairing
        documented: set[str] = set()
        for fence in _FENCE_RE.findall(text):
            documented.update(_TOKEN_RE.findall(fence))
        for span in re.findall(r"`([^`]+)`", _FENCE_RE.sub("", text)):
            documented.update(_TOKEN_RE.findall(span))

        for match in _ENTRY_RE.finditer(text):
            identifier = _IDENTIFIER_RE.match(match.group(1))
            if identifier is None:
                continue
            name = identifier.group(1).rstrip(".")
            line = text.count("\n", 0, match.start()) + 1
            if not _exists(program, name):
                yield Finding(
                    path="docs/API.md",
                    line=line,
                    col=1,
                    code="API001",
                    message=(
                        f"documented symbol `{name}` no longer resolves to "
                        f"anything in the program; " + self.rationale
                    ),
                )

        for module_name in sorted(program.modules):
            mod = program.modules[module_name]
            if (
                mod.ctx.name == "__init__.py"
                and module_name.count(".") == 1
                and module_name not in text
            ):
                yield Finding(
                    path=mod.ctx.relpath,
                    line=1,
                    col=1,
                    code="API002",
                    message=(
                        f"package `{module_name}` is never named in "
                        f"docs/API.md; " + self.rationale
                    ),
                )

        owners = _token_owners(program)
        for module_name in sorted(program.modules):
            mod = program.modules[module_name]
            if not mod.exports:
                continue
            for name in mod.exports:
                if name.startswith("_") or name in documented:
                    continue
                if owners.get(name, set()) - {module_name}:
                    continue
                all_stmt = mod.assigns.get("__all__")
                yield Finding(
                    path=mod.ctx.relpath,
                    line=getattr(all_stmt, "lineno", 1),
                    col=getattr(all_stmt, "col_offset", 0) + 1,
                    code="API002",
                    message=(
                        f"public symbol `{name}` (exported by "
                        f"`{module_name}.__all__`) is neither documented "
                        f"in docs/API.md nor referenced outside its "
                        f"module; " + self.rationale
                    ),
                )
