#!/usr/bin/env python3
"""Print the size of ``src/repro/``: physical and code lines per package,
the ``Engine.__init__`` parameter count and the number of operators.

A code line holds a token that is not a comment, a blank or a docstring
(any string literal that is a statement on its own), counted with
:mod:`tokenize`.  Packages are the directories directly under
``src/repro/``, each with its subpackages::

    python scripts/code_size.py
"""

from __future__ import annotations

import inspect
import os
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def sizes(path):
    """``(physical, code)`` lines of one Python file."""
    with open(path, "rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    code = set()
    previous = tokenize.NEWLINE  # the last token that is no comment/NL
    for i, tok in enumerate(tokens):
        statement = tok.type == tokenize.STRING and previous in LAYOUT \
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        if tok.type not in LAYOUT and not statement:
            code.update(range(tok.start[0], tok.end[0] + 1))
        if tok.type not in (tokenize.COMMENT, tokenize.NL):
            previous = tok.type
    with open(path, "rb") as handle:
        return sum(1 for _ in handle), len(code)


def main():
    totals = {}
    for folder, _, files in os.walk(os.path.join(ROOT, "repro")):
        package = os.path.relpath(folder, ROOT).split(os.sep)[:2]
        for name in files:
            if name.endswith(".py"):
                counts = sizes(os.path.join(folder, name))
                for key in ("src", "/".join(package)):
                    old = totals.get(key, (0, 0))
                    totals[key] = (old[0] + counts[0], old[1] + counts[1])
    print("%-22s %9s %9s" % ("package", "physical", "code"))
    for key in sorted(totals):
        print("%-22s %9d %9d" % ((key,) + totals[key]))
    sys.path.insert(0, ROOT)
    from repro.sparql.engine import Engine
    from repro.sparql.evaluator import OPERATORS
    print("Engine.__init__ parameters: %d"
          % (len(inspect.signature(Engine.__init__).parameters) - 1))
    print("OPERATORS: %d" % len(OPERATORS))


if __name__ == "__main__":
    main()
