"""Tokenizer for the SPARQL fragment supported by the engine.

Produces a stream of typed tokens for the recursive-descent parser.  The
fragment covers everything RDFFrames emits plus the hand-written expert and
naive baseline queries from the paper: prefixed names, IRIs, variables,
string/numeric/boolean literals, punctuation, comparison and logical
operators, and keywords.
"""

from __future__ import annotations

import re
from typing import Iterator, List, NamedTuple

from ..rdf.terms import NUMBER


class Token(NamedTuple):
    kind: str      # IRI, PNAME, VAR, STRING, NUMBER, KEYWORD, OP, PUNCT, EOF
    value: str
    position: int
    line: int


class TokenizeError(ValueError):
    def __init__(self, message: str, line: int, snippet: str):
        super().__init__("line %d: %s near %r" % (line, message, snippet))
        self.line = line


KEYWORDS = frozenset("""
    PREFIX BASE SELECT DISTINCT REDUCED WHERE FROM NAMED AS GROUP BY HAVING
    ORDER ASC DESC LIMIT OFFSET OPTIONAL UNION FILTER GRAPH BIND VALUES
    IN NOT EXISTS MINUS COUNT SUM MIN MAX AVG SAMPLE GROUP_CONCAT UNDEF
    TRUE FALSE A
""".split())

_TOKEN_RES = [
    ("COMMENT", r"#[^\n]*"),
    ("IRI", r"<[^<>\"{}|^`\\\x00-\x20]*>"),
    ("VAR", r"[?$][A-Za-z_][A-Za-z0-9_]*"),
    ("STRING", r'"""(?:[^"\\]|\\.|"(?!""))*"""|"(?:[^"\\\n]|\\.)*"'
               r"|'(?:[^'\\\n]|\\.)*'"),
    ("NUMBER", NUMBER),
    # Prefixed name: prefix may be empty; local part allows digits, _, -, .
    # (trailing dot excluded below).
    ("PNAME", r"[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z0-9_]"
              r"[A-Za-z0-9_.-]*|[A-Za-z_][A-Za-z0-9_-]*:"),
    ("DTYPE", r"\^\^"),
    ("LANGTAG", r"@[A-Za-z][A-Za-z0-9-]*"),
    ("OP", r"&&|\|\||!=|<=|>=|[=<>!+\-*/]"),
    ("PUNCT", r"[{}().,;]"),
    ("NAME", r"[A-Za-z_][A-Za-z0-9_]*"),
]

#: One alternation of the token patterns above, in their order: at a given
#: position the first alternative that matches wins, exactly as trying the
#: patterns one by one would, and ``lastgroup`` names the kind.
_TOKEN_RE = re.compile("|".join("(?P<%s>%s)" % (kind, pattern)
                                for kind, pattern in _TOKEN_RES))

_WS = re.compile(r"\s+")


def tokenize(text: str) -> List[Token]:
    """Tokenize a SPARQL query string; raises :class:`TokenizeError`."""
    tokens: List[Token] = []
    pos = 0
    line = 1
    length = len(text)
    match = _TOKEN_RE.match
    while pos < length:
        ws = _WS.match(text, pos)
        if ws:
            line += text.count("\n", pos, ws.end())
            pos = ws.end()
            if pos >= length:
                break
        m = match(text, pos)
        if m is None:
            raise TokenizeError("unexpected character", line, text[pos:pos + 20])
        kind = m.lastgroup
        value = m.group(0)
        end = m.end()
        if kind == "COMMENT":
            pos = end
            continue
        if kind == "PNAME" and value.endswith("."):
            # A trailing dot is the triple terminator, not the name.
            value = value.rstrip(".")
            end = pos + len(value)
        if kind == "NAME" and value.upper() in KEYWORDS:
            tokens.append(Token("KEYWORD", value.upper(), pos, line))
        else:
            tokens.append(Token(kind, value, pos, line))
        pos = end
    tokens.append(Token("EOF", "", pos, line))
    return tokens
