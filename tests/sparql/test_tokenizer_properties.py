"""The tokenizer's single alternation against the ordered pattern loop.

``tokenize`` matches one regex, an alternation of named groups in the
token kinds' priority order, and reads the kind from ``lastgroup``.
Alternation is ordered, so at every position it must pick exactly the
token the original tokenizer picked by trying one pattern per kind in
that order.  The original loop is copied here as the reference; random
strings over the token alphabet and every query text of the workload
corpus must give the same tokens, or the same :class:`TokenizeError` at
the same line.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.sparql.tokenizer import KEYWORDS, Token, TokenizeError, tokenize
from repro.workload import CASE_STUDIES, JOIN_QUERIES, SYNTHETIC_QUERIES

from queryfuzz import generate

_REFERENCE_RES = [
    ("COMMENT", re.compile(r"#[^\n]*")),
    ("IRI", re.compile(r"<[^<>\"{}|^`\\\x00-\x20]*>")),
    ("VAR", re.compile(r"[?$][A-Za-z_][A-Za-z0-9_]*")),
    ("STRING", re.compile(r'"""(?:[^"\\]|\\.|"(?!""))*"""|"(?:[^"\\\n]|\\.)*"'
                          r"|'(?:[^'\\\n]|\\.)*'")),
    ("NUMBER", re.compile(r"[0-9]+\.[0-9]*[eE][+-]?[0-9]+"
                          r"|\.?[0-9]+[eE][+-]?[0-9]+"
                          r"|[0-9]*\.[0-9]+|[0-9]+")),
    ("PNAME", re.compile(r"[A-Za-z_][A-Za-z0-9_-]*:[A-Za-z0-9_]"
                         r"[A-Za-z0-9_.-]*|[A-Za-z_][A-Za-z0-9_-]*:")),
    ("DTYPE", re.compile(r"\^\^")),
    ("LANGTAG", re.compile(r"@[A-Za-z][A-Za-z0-9-]*")),
    ("OP", re.compile(r"&&|\|\||!=|<=|>=|[=<>!+\-*/]")),
    ("PUNCT", re.compile(r"[{}().,;]")),
    ("NAME", re.compile(r"[A-Za-z_][A-Za-z0-9_]*")),
]

_WS = re.compile(r"\s+")


def reference_tokenize(text):
    """The ordered loop: try each kind's pattern in turn at each token."""
    tokens = []
    pos = 0
    line = 1
    length = len(text)
    while pos < length:
        ws = _WS.match(text, pos)
        if ws:
            line += text.count("\n", pos, ws.end())
            pos = ws.end()
            if pos >= length:
                break
        matched = False
        for kind, regex in _REFERENCE_RES:
            m = regex.match(text, pos)
            if not m:
                continue
            value = m.group(0)
            matched = True
            if kind == "COMMENT":
                pos = m.end()
                break
            if kind == "PNAME" and value.endswith("."):
                value = value.rstrip(".")
                m_end = pos + len(value)
            else:
                m_end = m.end()
            if kind == "NAME":
                if value.upper() in KEYWORDS:
                    tokens.append(Token("KEYWORD", value.upper(), pos, line))
                else:
                    tokens.append(Token("NAME", value, pos, line))
            else:
                tokens.append(Token(kind, value, pos, line))
            pos = m_end
            break
        if not matched:
            raise TokenizeError("unexpected character", line,
                                text[pos:pos + 20])
    tokens.append(Token("EOF", "", pos, line))
    return tokens


def outcome(tokenizer, text):
    try:
        return ("tokens", tokenizer(text))
    except TokenizeError as error:
        return ("error", error.line, str(error))


def assert_same(text):
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


#: Fragments that start (or nearly start) every token kind, plus the
#: characters where kinds compete: ``<`` (IRI or OP), ``.`` (NUMBER,
#: PUNCT or a PNAME's trailing dot), ``:`` and ``-`` (PNAME or NAME/OP),
#: quotes and escapes (STRING), ``#`` (COMMENT), ``@`` and ``^``.
FRAGMENTS = [
    "SELECT", "select", "a", "A", "FILTER", "regex", "x", "_b", "e",
    "?", "$", "?x", "$y1", "<", ">", "<http://x/a>", "<a b>", "<=", ">=",
    '"', "'", '"""', '"a\\"b"', "'c'", "\\", "\n", " ", "\t",
    "1", "42", "3.", ".5", "1e6", "2.5E-3", "e+", ".",
    "dbpr:", "dbpr:United_States", "p:a.b", "p:a-", "-", ":", "_:",
    "#", "# note\n", "^^", "^", "@en", "@", "&&", "&", "||", "|",
    "!=", "!", "=", "+", "*", "/", "{", "}", "(", ")", ",", ";",
    "~", "é", "\x00", "%",
]

ALPHABET = "".join(sorted(set("".join(FRAGMENTS))))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=24).map("".join))
def test_fragment_sequences_tokenize_alike(text):
    assert_same(text)


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet=ALPHABET, max_size=40))
def test_alphabet_strings_tokenize_alike(text):
    assert_same(text)


def corpus_texts():
    """Every query text the workloads send: the RDFFrames-generated and
    expert texts of the case studies and synthetic pipelines, the join
    corpus, and the differential fuzzer's generated queries."""
    texts = []
    for case in CASE_STUDIES:
        texts += [case.frame().to_sparql(), case.expert_sparql]
    for query in SYNTHETIC_QUERIES:
        texts += [query.frame().to_sparql(), query.expert_sparql]
    texts += [query.sparql for query in JOIN_QUERIES]
    texts += [generate(seed).render() for seed in range(300)]
    return texts


def test_corpus_tokenizes_alike():
    texts = corpus_texts()
    assert len(texts) > 300
    for text in texts:
        assert_same(text)


@pytest.mark.parametrize("text", ["?x ~ ?y", "SELECT\n\n  é", '"open'])
def test_same_error_at_same_line(text):
    kind, line, _ = outcome(tokenize, text)
    assert kind == "error"
    assert outcome(reference_tokenize, text) == (kind, line, _)
