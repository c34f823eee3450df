"""Expressions are evaluated once per distinct binding, for the life of
the dictionary.

FILTER, BIND, an OPTIONAL's condition, HAVING and an aggregate's
expression argument all read rows through one reader
(:func:`~repro.sparql.operators.expressions.expression_reader`): it keys
on the ids of the variables the expression reads, in name order, and
looks each key's outcome (errors included) up in the
:class:`~repro.sparql.operators.expressions.OutcomeStore` of the
evaluator's dictionary, which every operator and query over that
dictionary shares.  Each test builds its graph on a new dictionary, so
its store starts cold.  The reference plane evaluates every row afresh,
so it is the oracle here:

* every shape, over integers, decimals, plain and language-tagged
  strings, date lexicals, IRIs, a blank node and cells OPTIONAL leaves
  unbound, with rows that error (ordering on IRIs, failed casts,
  arithmetic on strings), returns the reference bag under stream hints
  ``None``, 1 and 7;
* a cold run's ``expression_evals`` counts the distinct keys of each
  expression (zero-, one- and two-variable keys), not its rows, and a
  second identical query counts none;
* with the store bound patched to 2 the rows are unchanged and the
  store never holds more than 2 outcomes;
* two different expressions never share outcomes, the same expression
  does, and readers that see ``?a < ?b`` from swapped columns, or an
  expression's variables from different schemas, agree with the
  reference;
* on the paper's case studies the count is the number of distinct
  bindings reaching each expression: ``kg_embedding`` evaluates
  ``isIRI(?o)`` once per distinct object of DBLP, ``topic_modeling`` its
  two date FILTERs once per distinct ``?date`` id reaching them.
"""

import random
import sys
import threading

import pytest

from queryfuzz import private_copy
from repro.data import DBLP_URI
from repro.data.loader import build_dataset
from repro.rdf import (BlankNode, Dataset, Graph, Literal, URIRef,
                       Variable)
from repro.rdf.dictionary import TermDictionary
from repro.rdf.terms import XSD_DECIMAL
from repro.sparql import Engine, Evaluator, ReferenceEvaluator, parse
from repro.sparql import algebra as alg
from repro.sparql.evaluator import EvaluationStats
from repro.sparql.expressions import CompareExpr, ConstExpr, VarExpr
from repro.sparql.operators import expressions, group, joins
from repro.sparql.plan import optimize_plan
from repro.sparql.solution import table_to_mappings
from repro.workload import get_case_study

X = "http://x/"
G = X + "g"
P, Q = URIRef(X + "p"), URIRef(X + "q")

#: Objects of ``<p>``: every term kind an expression may meet, date
#: lexicals (good, negative-year, garbage) and a blank node.
P_VALUES = [Literal(1), Literal(2), Literal(3),
            Literal("2.5", datatype=XSD_DECIMAL),
            Literal("abc"), Literal("abc", language="en"),
            Literal("abc", language="fr"),
            URIRef(X + "o1"), URIRef(X + "o2"),
            Literal("2001-05-01"), Literal("-0044-03-15T00:00:00"),
            Literal("garbage"), BlankNode("b1")]
#: Objects of ``<q>``, which a third of the subjects lack.
Q_VALUES = [Literal(2), Literal(5), URIRef(X + "o1")]
N_SUBJECTS = 30

PREFIX = "PREFIX x: <%s>\n" % X
P_ROWS = "?s x:p ?o ."
WITH_Q = "?s x:p ?o OPTIONAL { ?s x:q ?q }"

#: name -> query text.  Every expression site but OPTIONAL's condition,
#: over mixed and erroring rows.
TEXTS = {
    "filter_order_mixed": "SELECT ?s ?o WHERE { %s FILTER(?o > 1) }"
                          % P_ROWS,
    "filter_year_cast": "SELECT ?s ?o WHERE { %s "
                        "FILTER(year(xsd:dateTime(?o)) < 2000) }" % P_ROWS,
    "filter_is_iri": "SELECT ?s ?o WHERE { %s FILTER(isIRI(?o)) }" % P_ROWS,
    "filter_language": 'SELECT ?s ?o WHERE { %s FILTER(?o != "abc"@en) }'
                       % P_ROWS,
    "filter_two_vars_unbound": "SELECT ?s ?o ?q WHERE { %s "
                               "FILTER(?o != ?q) }" % WITH_Q,
    "filter_not_bound": "SELECT ?s ?o ?q WHERE { %s FILTER(!bound(?q)) }"
                        % WITH_Q,
    "filter_constant_true": "SELECT ?s ?o WHERE { %s FILTER(1 < 2) }"
                            % P_ROWS,
    "filter_constant_error": 'SELECT ?s ?o WHERE { %s FILTER("a" < 1) }'
                             % P_ROWS,
    "filter_absent_variable": "SELECT ?s ?o WHERE { %s "
                              "FILTER(!bound(?nowhere)) }" % P_ROWS,
    "bind_arithmetic": "SELECT ?s ?o ?b WHERE { %s BIND(?o + 1 AS ?b) }"
                       % P_ROWS,
    "bind_str": "SELECT ?s ?o ?b WHERE { %s BIND(STR(?o) AS ?b) }" % P_ROWS,
    "bind_constant": 'SELECT ?s ?b WHERE { %s BIND("k" AS ?b) }' % P_ROWS,
    "bind_two_vars_unbound": "SELECT ?s ?o ?q ?b WHERE { %s "
                             "BIND(?o = ?q AS ?b) }" % WITH_Q,
    "having_count": "SELECT ?o (COUNT(?s) AS ?n) WHERE { %s } GROUP BY ?o "
                    "HAVING (COUNT(?s) >= 5)" % P_ROWS,
    "having_error": "SELECT ?o (COUNT(?s) AS ?n) WHERE { %s } GROUP BY ?o "
                    "HAVING (?o > 1)" % P_ROWS,
    "sum_expression": "SELECT ?s (SUM(?o + 1) AS ?t) WHERE { %s } "
                      "GROUP BY ?s" % P_ROWS,
    "sum_two_vars_unbound": "SELECT (SUM(?o + ?q) AS ?t) (COUNT(?q) AS ?n) "
                            "WHERE { %s }" % WITH_Q,
    "min_distinct_str": "SELECT ?q (MIN(DISTINCT STR(?o)) AS ?m) "
                        "WHERE { %s } GROUP BY ?q" % WITH_Q,
    "union_two_filters": "SELECT ?s ?o WHERE { { %s FILTER(?o > 1) } "
                         "UNION { %s FILTER(?o < 3) } }" % (P_ROWS, P_ROWS),
    "union_same_filter": "SELECT ?s ?o WHERE { { %s FILTER(?o < 3) } "
                         "UNION { ?s x:p ?o FILTER(?o < 3) ?s x:q ?q } }"
                         % P_ROWS,
}

#: name -> condition of ``?s x:p ?o OPTIONAL { ?s x:q ?q }``.  The parser
#: turns a FILTER inside OPTIONAL into a filter on the optional side, so
#: a conditioned LeftJoin is built from the algebra.
CONDITIONS = {
    "optional_condition": "?q > ?o",
    "optional_condition_one_var": "isIRI(?q)",
    "optional_condition_constant": "1 > 2",
}

SHAPES = sorted(TEXTS) + sorted(CONDITIONS)


def _graph() -> Graph:
    """Each subject has two ``<p>`` objects, so every value repeats.  A
    new dictionary each time, so its outcome store starts cold."""
    graph = Graph(G, dictionary=TermDictionary())
    for i in range(N_SUBJECTS):
        subject = URIRef(X + "s%d" % i)
        graph.add(subject, P, P_VALUES[i % len(P_VALUES)])
        graph.add(subject, P, P_VALUES[(3 * i + 1) % len(P_VALUES)])
        if i % 3:
            graph.add(subject, Q, Q_VALUES[i % len(Q_VALUES)])
    return graph


def query_of(name) -> alg.Query:
    """A fresh algebra tree for shape ``name``."""
    if name in TEXTS:
        return parse(PREFIX + TEXTS[name])
    node = parse(PREFIX + "SELECT * WHERE { %s FILTER(%s) }"
                 % (P_ROWS, CONDITIONS[name])).pattern
    while not isinstance(node, alg.Filter):
        node = node.pattern
    s, o, q = Variable("s"), Variable("o"), Variable("q")
    return alg.Query(alg.LeftJoin(alg.BGP([(s, P, o)]), alg.BGP([(s, Q, q)]),
                                  node.condition))


def _dataset() -> Dataset:
    dataset = Dataset()
    dataset.add_graph(_graph())
    return dataset


@pytest.fixture
def small():
    """The mixed-kinds graph, as a one-graph dataset with a cold store."""
    return _dataset()


@pytest.fixture(scope="module")
def reference_bags():
    dataset = _dataset()
    return {name: as_bag(ReferenceEvaluator(dataset)
                         .evaluate_query(query_of(name)))
            for name in SHAPES}


def as_bag(mappings):
    return sorted(tuple(sorted((var, repr(term)) for var, term in mu.items()))
                  for mu in mappings)


def run(dataset, name, hint=None):
    """Plan shape ``name`` and execute it on a fresh evaluator with stream
    ``hint``: ``(decoded mappings, EvaluationStats)``."""
    plan = optimize_plan(query_of(name), graph=dataset.graph(G),
                         dataset=dataset)
    evaluator = Evaluator(dataset)
    table = evaluator.evaluate_plan_stream(plan, None, hint).to_table()
    return table_to_mappings(table, evaluator.dictionary), evaluator.stats


def store_of(dataset) -> expressions.OutcomeStore:
    return dataset.graph(G).dictionary.outcomes


@pytest.fixture
def readers(monkeypatch):
    """Record every expression reader built: ``(signature, cells)``.
    ``signature`` is the expression's text, the in-schema variable names
    and the outcome kind; ``cells`` holds the bindings of those
    variables, in name order, on each row the reader was asked about."""
    built = []
    real = expressions.expression_reader

    def recording(expression, index, dictionary, stats,
                  kind=expressions.TERM):
        read = real(expression, index, dictionary, stats, kind)
        names = tuple(sorted({name for name in expression.variables()
                              if name in index}))
        cells = []
        built.append(((expression.sparql(), names, kind), cells))

        def traced(row):
            cells.append(tuple(row[index[name]] for name in names))
            return read(row)
        return traced

    # Every operator module that builds a reader reads the name itself.
    for module in (expressions, joins, group):
        monkeypatch.setattr(module, "expression_reader", recording)
    return built


def distinct_keys(readers) -> int:
    """Distinct (signature, key) pairs: what a cold store evaluates."""
    return len({(signature, cell) for signature, cells in readers
                for cell in cells})


@pytest.mark.parametrize("hint", [None, 1, 7])
@pytest.mark.parametrize("name", SHAPES)
def test_shape_matches_reference(small, reference_bags, name, hint):
    got, stats = run(small, name, hint)
    assert as_bag(got) == reference_bags[name]
    assert stats.expression_evals > 0


@pytest.mark.parametrize("name", SHAPES)
def test_hints_change_no_count(name):
    """Outcomes belong to the store, not the batch: a stream hint changes
    batch sizes, never how many evaluations a cold store runs."""
    counts = [run(_dataset(), name, hint)[1].expression_evals
              for hint in (None, 1, 7)]
    assert counts[0] == counts[1] == counts[2]


@pytest.mark.parametrize("name,width", [
    ("filter_constant_true", 0), ("filter_constant_error", 0),
    ("filter_absent_variable", 0), ("bind_constant", 0),
    ("optional_condition_constant", 0),
    ("filter_order_mixed", 1), ("filter_year_cast", 1),
    ("bind_arithmetic", 1), ("having_count", 1), ("sum_expression", 1),
    ("optional_condition_one_var", 1),
    ("filter_two_vars_unbound", 2), ("bind_two_vars_unbound", 2),
    ("optional_condition", 2), ("sum_two_vars_unbound", 2),
])
def test_one_evaluation_per_distinct_key(small, readers, name, width):
    """Zero-, one- and two-variable keys: a cold store evaluates once per
    distinct binding its readers are asked about, fewer times than rows,
    and holds exactly those outcomes afterwards."""
    _rows, stats = run(small, name)
    assert readers
    asked = 0
    for _signature, cells in readers:
        assert {len(cell) for cell in cells} == {width}
        asked += len(cells)
    assert stats.expression_evals == distinct_keys(readers) < asked
    assert store_of(small).entries == stats.expression_evals
    if width == 0:
        assert stats.expression_evals == len(readers)  # the one key ``()``


@pytest.mark.parametrize("name", SHAPES)
def test_second_query_costs_nothing(small, reference_bags, name):
    """The store outlives the query: the same query again, on a new
    evaluator and a new plan, evaluates nothing and returns the same
    rows."""
    first, cold = run(small, name)
    second, warm = run(small, name)
    assert cold.expression_evals > 0
    assert warm.expression_evals == 0
    assert as_bag(first) == as_bag(second) == reference_bags[name]


def test_keys_are_stored_bare(small):
    """A one-variable key is the id itself and a constant expression's
    is ``()``; outcomes are the shared ``True``/``False`` singletons."""
    run(small, "filter_order_mixed")
    run(small, "filter_constant_true")
    memos = store_of(small).memos
    one = memos[("( ?o > 1 )", ("o",), expressions.EBV)]
    assert all(type(key) is int for key in one)
    assert set(one.values()) == {True, False}
    assert memos[("( 1 < 2 )", (), expressions.EBV)] == {(): True}


def test_unbound_cells_are_keys(small, readers):
    """``?o != ?q`` over an OPTIONAL: a missing ``?q`` is one more key
    (an error, so its rows are rejected), not a miss on every row."""
    rows, _stats = run(small, "filter_two_vars_unbound")
    (signature, cells), = readers
    unbound = [cell for cell in cells if cell[1] is None]
    assert len(set(unbound)) < len(unbound)
    memo = store_of(small).memos[signature]
    assert all(memo[cell] is False for cell in unbound)
    assert rows and all("q" in mu for mu in rows)


@pytest.fixture
def bounded(monkeypatch):
    """The store bound patched to 2; records the most outcomes any store
    held after a ``put``."""
    monkeypatch.setattr(expressions, "OUTCOME_STORE_ENTRIES", 2)
    held = [0]
    real = expressions.OutcomeStore.put

    def put(store, signature, key, outcome):
        real(store, signature, key, outcome)
        held[0] = max(held[0], store.entries,
                      sum(map(len, store.memos.values())))

    monkeypatch.setattr(expressions.OutcomeStore, "put", put)
    return held


@pytest.mark.parametrize("name", SHAPES)
def test_bounded_store_keeps_rows(small, reference_bags, readers, bounded,
                                  name):
    """Past the bound the store drops its largest memo: the same rows,
    never more than 2 outcomes held, and at least one evaluation per
    distinct key."""
    got, stats = run(small, name)
    assert as_bag(got) == reference_bags[name]
    assert 0 < bounded[0] <= 2
    assert store_of(small).entries <= 2
    assert stats.expression_evals >= distinct_keys(readers)


def test_bound_bites(small, readers, bounded):
    """Over keys that interleave, a 2-outcome store evaluates more often
    than once per key, and still less often than once per row."""
    _rows, stats = run(small, "filter_two_vars_unbound")
    (_signature, cells), = readers
    assert len(set(cells)) < stats.expression_evals < len(cells)


def test_full_store_drops_its_largest_memo(monkeypatch):
    monkeypatch.setattr(expressions, "OUTCOME_STORE_ENTRIES", 3)
    store = expressions.OutcomeStore()
    for key in (1, 2):
        store.put("big", key, True)
    store.put("small", 1, False)
    store.put("small", 2, False)  # full: "big" goes
    assert store.memos == {"small": {1: False, 2: False}}
    assert store.entries == 2
    store.put("small", 2, False)  # already held: counted once
    assert store.entries == 2


def test_concurrent_readers_keep_the_store_consistent(monkeypatch):
    """Eight threads read four expressions over one small store with the
    interpreter switching threads as often as it can: every outcome is
    right, and the store's count matches what it holds (a lost update
    would break it) and stays within the bound."""
    monkeypatch.setattr(expressions, "OUTCOME_STORE_ENTRIES", 64)
    dictionary = TermDictionary()
    ids = [dictionary.encode(Literal(number)) for number in range(400)]
    conditions = [CompareExpr(">", VarExpr("o"), ConstExpr(Literal(bound)))
                  for bound in range(0, 120, 30)]
    errors = []

    def work(seed):
        order = random.Random(seed).sample(range(len(ids)), len(ids))
        try:
            for bound, condition in zip(range(0, 120, 30), conditions):
                read = expressions.expression_reader(
                    condition, {"o": 0}, dictionary, EvaluationStats(),
                    expressions.EBV)
                for number in order * 3:
                    assert read((ids[number],)) is (number > bound)
        except AssertionError as exc:
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(seed,))
               for seed in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    store = dictionary.outcomes
    assert store.entries == sum(map(len, store.memos.values())) <= 64


def test_expressions_share_outcomes_only_with_themselves(small, readers):
    """Two different FILTERs over the same variable keep separate memos;
    the same FILTER in both branches of a UNION shares one, so the
    second branch evaluates only keys the first did not see."""
    _rows, stats = run(small, "union_two_filters")
    assert len(readers) == 2 and readers[0][0] != readers[1][0]
    assert len(store_of(small).memos) == 2
    assert stats.expression_evals == sum(len(set(cells))
                                         for _signature, cells in readers)

    del readers[:]
    dataset = _dataset()
    _rows, stats = run(dataset, "union_same_filter")
    (first_signature, first), (second_signature, second) = readers
    assert first_signature == second_signature
    assert len(store_of(dataset).memos) == 1
    assert stats.expression_evals == len(set(first) | set(second)) \
        == distinct_keys(readers) < len(set(first)) + len(set(second))


def bag_of(result):
    return sorted(tuple(sorted((var, repr(term))
                               for var, term in zip(result.variables, row)
                               if term is not None))
                  for row in result.rows)


VALUES_AB = "SELECT ?a ?b WHERE { VALUES (%s) { %s } FILTER(?a < ?b) }"


def test_swapped_columns_match_reference():
    """``?a < ?b`` read from ``(?a, ?b)`` columns and then from
    ``(?b, ?a)`` columns: the key is in name order, so the second reader
    finds the first one's outcomes under the right variables (a key in
    column order would hand ``a=1, b=2`` the verdict of ``a=2, b=1``)."""
    dataset = _dataset()
    engine, reference = Engine(dataset), Engine(dataset, columnar=False)
    for text in (VALUES_AB % ("?a ?b", "(1 2) (2 1) (3 3)"),
                 VALUES_AB % ("?b ?a", "(2 1) (1 2) (3 3)")):
        got = bag_of(engine.query(text))
        assert got == bag_of(reference.query(text)) \
            == [(("a", repr(Literal(1))), ("b", repr(Literal(2))))]
    assert engine.last_stats.expression_evals == 0


def test_schemas_with_different_variables_never_share():
    """``bound(?a) && !bound(?b)`` over a schema holding only ``?a`` and
    over one holding only ``?b``: both keys are one bare id, so the
    signature's variable names keep them apart."""
    engine = Engine(_dataset())
    text = ("SELECT * WHERE { VALUES ?%s { 1 } "
            "FILTER(bound(?a) && !bound(?b)) }")
    assert len(engine.query(text % "a").rows) == 1
    assert len(engine.query(text % "b").rows) == 0


# ----------------------------------------------------------------------
# The paper's case studies: distinct bindings, not rows
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def case_data():
    return build_dataset(scale=0.05)


def test_kg_embedding_evaluates_once_per_distinct_object(case_data):
    dataset = private_copy(case_data)
    engine = Engine(dataset)
    text = get_case_study("kg_embedding").frame().to_sparql()
    result = engine.query(text)
    triples = list(dataset.graph(DBLP_URI).triples(None, None, None))
    objects = {o for _s, _p, o in triples}
    assert engine.last_stats.expression_evals == len(objects) < len(triples)
    assert len(result.rows) == sum(isinstance(o, URIRef)
                                   for _s, _p, o in triples)
    assert len(engine.query(text).rows) == len(result.rows)
    assert engine.last_stats.expression_evals == 0


def test_topic_modeling_evaluates_once_per_distinct_date(case_data, readers):
    """Two ``year(xsd:dateTime(?date))`` FILTERs, the conference ``IN``
    filter and the HAVING each evaluate once per distinct binding that
    reaches them: the date filters cost the distinct ``?date`` ids
    reaching them, not their rows.  A second run costs nothing."""
    engine = Engine(private_copy(case_data))
    text = get_case_study("topic_modeling").frame().to_sparql()
    first = engine.query(text)
    dates = [entry for entry in readers if entry[0][1] == ("date",)]
    assert len(dates) == 2
    assert engine.last_stats.expression_evals == distinct_keys(readers)
    assert distinct_keys(dates) < sum(len(cells) for _sig, cells in dates)
    assert engine.query(text).rows == first.rows
    assert engine.last_stats.expression_evals == 0
