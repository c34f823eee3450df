"""Properties of the algebra nodes' declared fields.

Each node type lists its fields in ``__slots__`` and names its subtree
fields in ``CHILDREN``; ``children()``, ``replace(children)`` and the
plan-cache serialization ``key()`` are derived from those two lists.
Hypothesis draws small trees over every node type and checks that:

* ``replace`` with a node's own children returns the node itself;
* ``replace`` with new children keeps every other field, and putting
  the old children back gives the old ``repr`` and ``key()``;
* changing any one declared field changes ``key()``, so the key covers
  every field (compared with a serialization written here, not the
  node's own);
* two parses of the same text have the same ``key()``.

The planner's rewrite walk (:func:`~repro.sparql.plan.rewrite`) runs
over the same trees: its output is a fixpoint (a second walk fires no
rule), and the input tree keeps its shape (the ``repr`` and ``key()`` of
every node), since rules rebuild and never mutate.

A constant's SPARQL text is part of every key that holds it (plan keys,
result-cache keys, expression-outcome signatures), so the parser reads
it back as the very same term: every IRI and literal of the shared term
zoo (``tests/termzoo.py``), canonical or not.
Two constants that render alike would then be one term, so the text
tells any two constants apart; two pairs that used to collide get one
engine each way.
"""

from hypothesis import given, settings, strategies as st

from repro.rdf import Graph, Literal, URIRef, Variable
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import (XSD_BOOLEAN, XSD_DECIMAL, XSD_INTEGER,
                             XSD_STRING)
from repro.sparql import Engine, ResultCache, QueryServer
from repro.sparql import algebra as alg
from repro.sparql.expressions import (CompareExpr, ConstExpr, Expression,
                                      VarExpr)
from repro.sparql.parser import parse
from repro.sparql.plan import rewrite
from repro.workload import CASE_STUDIES, JOIN_QUERIES, SYNTHETIC_QUERIES

import termzoo
from queryfuzz import generate
from plan_variants import nodes

NAMES = ["a", "b", "c"]
names = st.sampled_from(NAMES)
name_lists = st.lists(names, max_size=3)
constants = st.sampled_from([URIRef("http://x/p"), URIRef("http://x/q"),
                             Literal(1), Literal("one")])
terms = st.one_of(names.map(Variable), constants)
triples = st.tuples(terms, terms, terms)
expressions = st.one_of(
    names.map(VarExpr), constants.map(ConstExpr),
    st.builds(CompareExpr, st.sampled_from(["=", "<"]),
              names.map(VarExpr), constants.map(ConstExpr)))
aggregates = st.builds(
    alg.Aggregate, st.sampled_from(["count", "sum", "max"]),
    st.one_of(st.none(), names.map(VarExpr)), st.sampled_from(["n", "m"]),
    st.booleans())
sort_keys = st.lists(st.tuples(names, st.sampled_from(["asc", "desc"])),
                     max_size=2)
limits = st.one_of(st.none(), st.integers(0, 3))
offsets = st.integers(0, 3)

#: Per node type: a strategy for that type over ``child`` subtrees.
STRATEGIES = {
    alg.BGP: lambda child: st.builds(alg.BGP, st.lists(triples, max_size=2)),
    alg.InlineData: lambda child: st.builds(
        alg.InlineData, st.just(["a"]),
        st.lists(st.tuples(st.one_of(st.none(), constants)), max_size=2)),
    alg.Join: lambda child: st.builds(alg.Join, child, child),
    alg.LeftJoin: lambda child: st.builds(
        alg.LeftJoin, child, child, st.one_of(st.none(), expressions)),
    alg.Union: lambda child: st.builds(alg.Union, child, child),
    alg.Minus: lambda child: st.builds(alg.Minus, child, child),
    alg.Filter: lambda child: st.builds(alg.Filter, expressions, child),
    alg.Extend: lambda child: st.builds(alg.Extend, child, names,
                                        expressions),
    alg.Group: lambda child: st.builds(
        alg.Group, child, name_lists, st.lists(aggregates, max_size=2),
        st.one_of(st.none(), expressions)),
    alg.Project: lambda child: st.builds(
        alg.Project, child, st.one_of(st.none(), name_lists)),
    alg.Distinct: lambda child: st.builds(alg.Distinct, child),
    alg.OrderBy: lambda child: st.builds(alg.OrderBy, child, sort_keys),
    alg.Slice: lambda child: st.builds(alg.Slice, child, limits, offsets),
    alg.TopK: lambda child: st.builds(alg.TopK, child, sort_keys,
                                      st.integers(1, 3), offsets),
    alg.FilterExists: lambda child: st.builds(alg.FilterExists, child, child,
                                              st.booleans()),
    alg.GraphPattern: lambda child: st.builds(
        alg.GraphPattern, st.sampled_from(["http://g1", "http://g2"]),
        child),
}
LEAF_TYPES = (alg.BGP, alg.InlineData)
leaves = st.one_of([STRATEGIES[kind](None) for kind in LEAF_TYPES])
trees = st.recursive(leaves, lambda child: st.one_of(
    [make(child) for kind, make in STRATEGIES.items()
     if kind not in LEAF_TYPES]), max_leaves=4)


def test_every_node_type_is_drawn():
    assert set(STRATEGIES) == set(alg.AlgebraNode.__subclasses__())


def fields(node):
    """A node's declared fields, by name."""
    return {name: getattr(node, name) for name in type(node).__slots__}


def with_field(node, name, value):
    """``node`` built again with one declared field changed."""
    return type(node)(**dict(fields(node), **{name: value}))


def canonical(value):
    """An independent serialization: what makes two field values the
    same query."""
    if isinstance(value, alg.AlgebraNode):
        return (type(value).__name__,
                tuple(canonical(v) for v in fields(value).values()))
    if isinstance(value, (list, tuple)):
        return tuple(canonical(v) for v in value)
    if isinstance(value, Variable):
        return ("var", value.name)
    if isinstance(value, (Expression, alg.Aggregate)):
        return ("sparql", value.sparql())
    return ("value", repr(value))


@settings(max_examples=300, deadline=None)
@given(trees)
def test_replace_with_own_children_is_identity(tree):
    for node in nodes(tree):
        assert node.replace(node.children()) is node


@settings(max_examples=300, deadline=None)
@given(trees, st.data())
def test_replace_keeps_every_other_field(tree, data):
    for node in nodes(tree):
        kind = type(node)
        if not kind.CHILDREN:
            continue
        fresh = [data.draw(leaves) for _ in kind.CHILDREN]
        rebuilt = node.replace(fresh)
        assert type(rebuilt) is kind
        assert all(new is old for new, old in zip(rebuilt.children(), fresh))
        for name, value in fields(node).items():
            if name not in kind.CHILDREN:
                assert canonical(fields(rebuilt)[name]) == canonical(value)
        restored = rebuilt.replace(node.children())
        assert repr(restored) == repr(node)
        assert restored.key() == node.key()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(sorted(STRATEGIES, key=lambda k: k.__name__)),
       st.data())
def test_key_covers_every_declared_field(kind, data):
    node, other = (data.draw(STRATEGIES[kind](leaves)) for _ in range(2))
    for name, value in fields(other).items():
        changed = with_field(node, name, value)
        if canonical(changed) != canonical(node):
            assert changed.key() != node.key(), name


def corpus_texts():
    texts = [query.sparql for query in JOIN_QUERIES]
    texts += [case.frame().to_sparql() for case in CASE_STUDIES]
    texts += [query.frame().to_sparql() for query in SYNTHETIC_QUERIES]
    return texts + [generate(seed).render() for seed in range(200)]


def test_key_is_a_function_of_the_text():
    for text in corpus_texts():
        first, second = parse(text).pattern, parse(text).pattern
        assert first is not second
        assert first.key() == second.key(), text


def shape(tree):
    return [(repr(node), node.key()) for node in nodes(tree)]


@settings(max_examples=300, deadline=None)
@given(trees)
def test_rewrite_output_is_a_fixpoint(tree):
    rewritten, _ = rewrite(tree)
    again, stats = rewrite(rewritten)
    assert {name: s.changes for name, s in stats.items() if s.changes} == {}
    assert again is rewritten


@settings(max_examples=300, deadline=None)
@given(trees)
def test_rewrite_leaves_its_input_alone(tree):
    before = shape(tree)
    rewrite(tree)
    assert shape(tree) == before


# ----------------------------------------------------------------------
# Constants render to text the parser reads back as the same term
# ----------------------------------------------------------------------

def read_back(text):
    """The constant ``BIND(text AS ?x)`` parses to."""
    node = parse("SELECT ?x WHERE { BIND(%s AS ?x) }" % text).pattern
    while not isinstance(node, alg.Extend):
        node = node.pattern
    assert isinstance(node.expression, ConstExpr), text
    return node.expression.term


@settings(max_examples=600, deadline=None)
@given(termzoo.constants)
@termzoo.with_examples(URIRef, Literal)
def test_constant_text_parses_back_to_the_same_term(term):
    text = ConstExpr(term).sparql()
    assert read_back(text) == term, text


def test_constant_text_keeps_every_pair_of_terms_apart():
    pairs = [(Literal("1", datatype=XSD_DECIMAL), Literal(1)),
             (Literal("abc", datatype=XSD_STRING), Literal("abc")),
             (Literal("01", datatype=XSD_INTEGER), Literal(1)),
             (Literal("1", datatype=XSD_BOOLEAN), Literal(True)),
             (Literal("1.0", datatype=XSD_DECIMAL), Literal(1.0)),
             (Literal("2.5", datatype=XSD_DECIMAL), Literal(2.5))]
    for left, right in pairs:
        assert ConstExpr(left).sparql() != ConstExpr(right).sparql()
    assert ConstExpr(Literal(1)).sparql() == "1"
    assert ConstExpr(Literal("2.5", datatype=XSD_DECIMAL)).sparql() == "2.5"
    assert ConstExpr(Literal(True)).sparql() == "true"
    assert ConstExpr(Literal("abc")).sparql() == '"abc"'


XSD = "http://www.w3.org/2001/XMLSchema#"
BIND_QUERY = "SELECT ?y WHERE { ?s <http://x/p> ?v BIND(%s AS ?y) }"
#: Pairs of BIND expressions whose constants used to render alike, so
#: the second query of a pair was served the first one's plan.
COLLIDING = [("(?v + \"1\"^^<%sdecimal>)" % XSD, "(?v + 1)"),
             ("\"abc\"^^<%sstring>" % XSD, '"abc"')]


def _bind_graph():
    graph = Graph("http://x/g", dictionary=TermDictionary())
    graph.add(URIRef("http://x/s"), URIRef("http://x/p"), Literal(2))
    return graph


def test_constants_that_used_to_collide_keep_their_plans():
    """One engine runs both queries of a pair, in both orders, and
    agrees with the reference plane on each."""
    for pair in COLLIDING:
        for first, second in (pair, pair[::-1]):
            graph = _bind_graph()
            engine = Engine(graph)
            for expression in (first, second):
                text = BIND_QUERY % expression
                assert engine.query(text).rows == Engine(
                    graph, columnar=False).query(text).rows, text


def test_constants_that_used_to_collide_keep_their_cached_results():
    """The result cache is keyed on the plan key, so the same text
    decides which cached result a query is served (no plan cache here,
    so only the result cache could mix the pair up)."""
    for first, second in COLLIDING:
        graph = _bind_graph()
        with QueryServer(Engine(graph, plan_cache_size=0), workers=1,
                         result_cache=ResultCache(max_entries=8)) as server:
            for expression in (first, second, first, second):
                text = BIND_QUERY % expression
                assert server.submit(text).result().rows == Engine(
                    graph, columnar=False).query(text).rows, text
