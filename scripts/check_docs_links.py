#!/usr/bin/env python3
"""Check that README.md and docs/ point at things that exist.

Two checks:

* every relative ``[text](target)`` link resolves to a file, relative to
  the file containing the link (absolute URLs, ``mailto:`` and pure
  in-page anchors are skipped);
* every backticked private name — ```_name```, ```Class._name``` or
  ```module._name```, optionally followed by ``()`` — has its last part
  defined somewhere under ``src/`` (a ``def``, a ``class`` or an
  assignment, ``self._name = ...`` included).

Exits non-zero listing every broken reference, so CI fails loudly when
a doc is moved, or code is renamed, without updating the references.

Run from the repo root::

    python scripts/check_docs_links.py
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A backticked dotted name whose last part is private (one underscore).
PRIVATE_NAME = re.compile(
    r"`(?:[A-Za-z_]\w*\.)*(_[A-Za-z]\w*)(?:\(\))?`")
REPO = Path(__file__).resolve().parents[1]


def iter_doc_files():
    yield REPO / "README.md"
    yield from sorted((REPO / "docs").glob("*.md"))


def defined_names(root: Path) -> set:
    """Every name a ``def``, ``class`` or assignment under ``root``
    defines (attribute targets such as ``self._name`` included)."""
    names = set()
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
                continue
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        names.add(sub.id)
                    elif isinstance(sub, ast.Attribute):
                        names.add(sub.attr)
    return names


def check_file(path: Path, defined: set):
    broken = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for name in PRIVATE_NAME.findall(line):
            if name not in defined:
                broken.append((path, lineno, "undefined name %s" % name))
        for target in LINK.findall(line):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0]
            if not relative:
                continue
            if not (path.parent / relative).exists():
                broken.append((path, lineno, target))
    return broken


def main() -> int:
    broken = []
    checked = 0
    defined = defined_names(REPO / "src")
    for path in iter_doc_files():
        if not path.exists():
            broken.append((path, 0, "<file missing>"))
            continue
        checked += 1
        broken.extend(check_file(path, defined))
    for path, lineno, target in broken:
        print("BROKEN %s:%d -> %s" % (path.relative_to(REPO), lineno, target))
    print("checked %d file(s): %s" % (
        checked, "FAILED (%d broken)" % len(broken) if broken else "ok"))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
