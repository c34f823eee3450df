"""Laws of the aggregate functions, checked with hypothesis.

Random multisets of integer, decimal and string literals, IRIs and
unbound values go through every aggregate function x DISTINCT, with
empty input included:

* folding the rows in any order into the production accumulator
  (:func:`~repro.sparql.operators.group.compile_aggregate`) and finishing
  equals the reference plane's own batch aggregate
  (:func:`~repro.sparql.reference._apply_aggregate`) over the same rows;
* COUNT, SUM, AVG, MIN and MAX do not depend on the input order;
* SAMPLE returns a member of the input;
* the index-backed single-pattern COUNT builds the same groups, in the
  same order, as the row fold over the pattern's rows.

Decimals are multiples of 1/4 and integers are small, so every float sum
is exact: SUM / AVG order-invariance is then a law of the accumulator,
not a rounding accident.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rdf import Graph, Literal, TermDictionary, URIRef
from repro.rdf.terms import XSD_DECIMAL
from repro.sparql import Engine, EvaluationStats, parse
from repro.sparql.operators import group

from plan_variants import Variant
from repro.sparql.reference import _apply_aggregate

DICTIONARY = TermDictionary()

TERMS = st.one_of(
    st.integers(-1000, 1000).map(Literal),
    st.integers(-4000, 4000).map(
        lambda k: Literal(repr(k / 4), datatype=XSD_DECIMAL)),
    st.text("abc", max_size=3).map(Literal),
    st.text("xyz", min_size=1, max_size=3).map(
        lambda name: URIRef("http://x/" + name)),
)
CELLS = st.one_of(st.none(), TERMS)  # None: the variable is unbound

FUNCTIONS = ["count", "sum", "avg", "min", "max", "sample", "group_concat"]
ORDER_FREE = {"count", "sum", "avg", "min", "max"}


def aggregate_of(function, distinct, argument):
    """The ``Aggregate`` the parser builds for ``function(argument)``."""
    query = parse("SELECT (%s(%s%s) AS ?a) WHERE { ?s ?p ?v }"
                  % (function.upper(), "DISTINCT " if distinct else "",
                     argument))
    node = query.pattern
    while not hasattr(node, "aggregates"):
        node = node.pattern
    return node.aggregates[0]


CASES = [(function, distinct, argument)
         for function in FUNCTIONS
         for distinct in (False, True)
         for argument in ("?v", "?v + 1")] \
    + [("count", distinct, "*") for distinct in (False, True)]
IDS = ["%s%s(%s)" % (f, "-distinct" if d else "", a) for f, d, a in CASES]


def fold(aggregate, cells):
    """Fold ``cells`` (terms or None) as one-column id rows, then finish."""
    new_state, fold_row, finish = group.compile_aggregate(
        aggregate, {"v": 0}, DICTIONARY, EvaluationStats())
    state = new_state()
    for cell in cells:
        fold_row(state, (None if cell is None
                         else DICTIONARY.encode(cell),))
    return finish(state)


def reference(aggregate, cells):
    return _apply_aggregate(aggregate, [{} if cell is None else {"v": cell}
                                        for cell in cells])


@pytest.mark.parametrize("case", CASES, ids=IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data(), cells=st.lists(CELLS, max_size=12))
@example(data=None, cells=[])
def test_fold_in_any_order_equals_reference(case, data, cells):
    aggregate = aggregate_of(*case)
    if data is not None:
        cells = data.draw(st.permutations(cells))
    assert fold(aggregate, cells) == reference(aggregate, cells)


@pytest.mark.parametrize("case", [c for c in CASES if c[0] in ORDER_FREE],
                         ids=[i for c, i in zip(CASES, IDS)
                              if c[0] in ORDER_FREE])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), cells=st.lists(CELLS, max_size=12))
def test_order_invariant(case, data, cells):
    aggregate = aggregate_of(*case)
    shuffled = data.draw(st.permutations(cells))
    assert fold(aggregate, shuffled) == fold(aggregate, cells)


@pytest.mark.parametrize("distinct", [False, True])
@settings(max_examples=60, deadline=None)
@given(cells=st.lists(CELLS, max_size=12))
def test_sample_returns_a_member(distinct, cells):
    got = fold(aggregate_of("sample", distinct, "?v"), cells)
    bound = [cell for cell in cells if cell is not None]
    if bound:
        assert got in bound
    else:
        assert got is None


TRIPLES = st.lists(st.tuples(
    st.integers(0, 4).map(lambda i: URIRef("http://x/s%d" % i)),
    st.sampled_from([URIRef("http://x/p"), URIRef("http://x/q")]),
    st.one_of(st.integers(0, 3).map(lambda i: URIRef("http://x/o%d" % i)),
              st.integers(0, 3).map(Literal))), max_size=16)


@pytest.mark.parametrize("key", ["s", "o"])
@pytest.mark.parametrize("argument,distinct",
                         [("*", False), ("?v", False), ("?v", True)])
@settings(max_examples=60, deadline=None)
@given(triples=TRIPLES)
def test_index_count_matches_row_fold(key, argument, distinct, triples):
    graph = Graph("http://g")
    for triple in triples:
        graph.add(*triple)
    other = "?o" if key == "s" else "?s"
    query = ("SELECT ?%s (COUNT(%s%s) AS ?n) WHERE { ?s <http://x/p> ?o } "
             "GROUP BY ?%s" % (key, "DISTINCT " if distinct else "",
                               argument.replace("?v", other), key))
    indexed = Engine(graph)
    want = indexed.query(query).rows
    assert indexed.last_stats.accumulator_rows == 0  # no row was folded
    folded = Variant(Engine(graph), star=False)
    got = folded.query(query).rows
    assert folded.last_stats.accumulator_rows \
        == graph.count(predicate=URIRef("http://x/p"))
    assert got == want  # first-seen group order, not just the same bag


#: Star data: a few IRIs that are both subjects and objects, so subject-
#: and object-centred stars both meet shared centres; literals only as
#: objects.
NODES = [URIRef("http://x/n%d" % i) for i in range(5)]
STAR_PREDICATES = [URIRef("http://x/p"), URIRef("http://x/q")]
STAR_TRIPLES = st.lists(st.tuples(
    st.sampled_from(NODES), st.sampled_from(STAR_PREDICATES),
    st.one_of(st.sampled_from(NODES),
              st.integers(0, 1).map(Literal))), max_size=24)


@st.composite
def stars(draw):
    """A random star ``Group`` query: 1-4 arms around ``?c`` (constant or
    leaf ends, subject- or object-centred, predicates drawn with
    repeats), a random ordered subset of the leaves as keys (none is the
    implicit group), and 1-3 aggregates from ``COUNT(*)``,
    ``COUNT(?leaf)``, ``COUNT(?c)`` and ``COUNT(DISTINCT ?c)``."""
    triples, leaves = [], []
    for i in range(draw(st.integers(1, 4))):
        predicate = draw(st.sampled_from(STAR_PREDICATES)).n3()
        if draw(st.booleans()):
            end = "?l%d" % i
            leaves.append(end)
        else:
            end = draw(st.sampled_from(NODES)).n3()
        out = draw(st.booleans())
        triples.append("?c %s %s ." % (predicate, end) if out
                       else "%s %s ?c ." % (end, predicate))
    keys = draw(st.permutations(leaves))[:draw(st.integers(0, len(leaves)))]
    counted = ["*", "?c", "DISTINCT ?c"] + leaves
    aggregates = " ".join(
        "(COUNT(%s) AS ?n%d)" % (draw(st.sampled_from(counted)), i)
        for i in range(draw(st.integers(1, 3))))
    return "SELECT %s %s WHERE { %s }%s" % (
        " ".join(keys), aggregates, " ".join(triples),
        " GROUP BY " + " ".join(keys) if keys else "")


def bag(result):
    return sorted(map(repr, result.rows))


@settings(max_examples=150, deadline=None)
@given(triples=STAR_TRIPLES, query=stars())
@example(triples=[(NODES[0], STAR_PREDICATES[0], NODES[1]),
                  (NODES[0], STAR_PREDICATES[0], NODES[2]),
                  (NODES[3], STAR_PREDICATES[0], NODES[1])],
         query="SELECT ?a1 ?a2 (COUNT(?c) AS ?n) WHERE { ?c <http://x/p> "
               "?a1 . ?c <http://x/p> ?a2 . } GROUP BY ?a1 ?a2")
def test_star_count_matches_row_fold_and_reference(triples, query):
    graph = Graph("http://g")
    for triple in triples:
        graph.add(*triple)
    starred = Engine(graph)
    assert "[count=star ?" in starred.plan(query).explain()
    want = starred.query(query)
    assert starred.last_stats.accumulator_rows == 0
    assert bag(Variant(Engine(graph), star=False).query(query)) == bag(want)
    assert bag(Engine(graph, columnar=False).query(query)) == bag(want)
