#!/usr/bin/env python3
"""Markdown link checker: every local link in the docs must resolve.

Scans the given markdown files (default: README.md, DESIGN.md,
EXPERIMENTS.md and docs/*.md) for

* inline links/images ``[text](target)``,
* backtick-quoted repo paths like ``docs/OBSERVABILITY.md`` or
  ``examples/quickstart.py`` (the repo's docs reference files this way
  far more often than with markdown links),

and verifies each local target exists relative to the file (or the repo
root).  External URLs (``http(s)://``, ``mailto:``) are ignored — no
network.  Exits non-zero listing every broken reference.

Coverage of ``docs/API.md`` (every ``src/repro`` package named there)
is the deep linter's API002 rule, not this script's.

Run:  python tools/check_docs.py [files...]
"""

from __future__ import annotations

import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
# `path/to/file.ext` mentions; require a slash so `setup.py`-style bare
# names and code identifiers don't trigger.
BACKTICK_PATH = re.compile(
    r"`((?:[\w.-]+/)+[\w.-]+\.(?:md|py|json|yml|yaml|toml|txt))`"
)
EXTERNAL = ("http://", "https://", "mailto:")


def default_files() -> list[pathlib.Path]:
    files = [REPO_ROOT / "README.md"]
    for name in ("DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md"):
        if (REPO_ROOT / name).exists():
            files.append(REPO_ROOT / name)
    files.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return files


def resolves(target: str, source: pathlib.Path) -> bool:
    target = target.split("#", 1)[0]
    if not target:
        return True  # pure fragment: same-file anchor
    candidates = [source.parent / target, REPO_ROOT / target]
    return any(c.exists() for c in candidates)


def check_file(path: pathlib.Path) -> list[str]:
    broken = []
    text = path.read_text(encoding="utf-8")
    in_code_block = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("```"):
            in_code_block = not in_code_block
            continue
        targets = [m.group(1) for m in INLINE_LINK.finditer(line)]
        if not in_code_block:
            targets += [m.group(1) for m in BACKTICK_PATH.finditer(line)]
        for target in targets:
            if target.startswith(EXTERNAL):
                continue
            if not resolves(target, path):
                broken.append(f"{path.relative_to(REPO_ROOT)}:{lineno}: {target}")
    return broken


def main(argv: list[str]) -> int:
    files = [pathlib.Path(a) for a in argv] if argv else default_files()
    broken: list[str] = []
    for path in files:
        if not path.exists():
            broken.append(f"{path}: file not found")
            continue
        broken.extend(check_file(path))
    if broken:
        print("broken local references:", file=sys.stderr)
        for entry in broken:
            print(f"  {entry}", file=sys.stderr)
        return 1
    print(f"OK — {len(files)} files, all local references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
