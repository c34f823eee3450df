"""Expressions are evaluated once per distinct binding.

FILTER, BIND, an OPTIONAL's condition, HAVING and an aggregate's
expression argument all read rows through one memoized reader
(:func:`~repro.sparql.evaluator._expression_reader`): it keys on the ids
of the variables the expression reads and remembers each key's outcome,
errors included.  The reference plane evaluates every row afresh, so it
is the oracle here:

* every shape, over integers, decimals, plain and language-tagged
  strings, date lexicals, IRIs, a blank node and cells OPTIONAL leaves
  unbound, with rows that error (ordering on IRIs, failed casts,
  arithmetic on strings), returns the reference bag under stream hints
  ``None``, 1 and 7;
* ``expression_evals`` counts the distinct keys each operator saw
  (zero-, one- and two-variable keys), not its rows;
* with the memo capped at 2 entries the rows are unchanged and no memo
  grows past 2;
* on the paper's case studies the count is the number of distinct
  bindings reaching each expression: ``kg_embedding`` evaluates
  ``isIRI(?o)`` once per distinct object of DBLP, ``topic_modeling`` its
  two date FILTERs once per distinct ``?date`` id reaching them.
"""

import pytest

from repro.data import DBLP_URI
from repro.data.loader import build_dataset
from repro.rdf import (BlankNode, Dataset, Graph, Literal, URIRef,
                       Variable)
from repro.rdf.terms import XSD_DECIMAL
from repro.sparql import Engine, Evaluator, ReferenceEvaluator, parse
from repro.sparql import algebra as alg
from repro.sparql import evaluator as evaluator_module
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
    """Each subject has two ``<p>`` objects, so every value repeats."""
    graph = Graph(G)
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


@pytest.fixture(scope="module")
def small():
    """The mixed-kinds graph, as a one-graph dataset."""
    dataset = Dataset()
    dataset.add_graph(_graph())
    return dataset


@pytest.fixture(scope="module")
def reference_bags(small):
    return {name: as_bag(ReferenceEvaluator(small)
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


@pytest.fixture
def readers(monkeypatch):
    """Record every expression reader built: ``(expression, read, cells)``,
    ``cells`` being the bindings of the expression's variables on each
    row the reader was asked about."""
    built = []
    real = evaluator_module._expression_reader

    def recording(expression, index, *args):
        read = real(expression, index, *args)
        positions = [index[name] for name in expression.variables()
                     if name in index]
        cells = []
        built.append((expression, read, cells))

        def traced(row):
            cells.append(tuple(row[p] for p in positions))
            return read(row)
        return traced

    monkeypatch.setattr(evaluator_module, "_expression_reader", recording)
    return built


def distinct_keys(readers) -> int:
    return sum(len(set(cells)) for _expression, _read, cells in readers)


@pytest.mark.parametrize("hint", [None, 1, 7])
@pytest.mark.parametrize("name", SHAPES)
def test_shape_matches_reference(small, reference_bags, name, hint):
    got, stats = run(small, name, hint)
    assert as_bag(got) == reference_bags[name]
    assert stats.expression_evals > 0


@pytest.mark.parametrize("name", SHAPES)
def test_hints_change_no_count(small, name):
    """The memo belongs to the operator, not the batch: a stream hint
    changes batch sizes, never how many evaluations run."""
    counts = [run(small, name, hint)[1].expression_evals
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
    """Zero-, one- and two-variable keys: each reader evaluates once per
    distinct binding it is asked about, fewer times than rows."""
    _rows, stats = run(small, name)
    assert readers
    asked = 0
    for _expression, _read, cells in readers:
        assert {len(cell) for cell in cells} == {width}
        asked += len(cells)
    assert stats.expression_evals == distinct_keys(readers) < asked
    if width == 0:
        assert stats.expression_evals == len(readers)  # the one key ``()``


def test_unbound_cells_are_keys(small, readers):
    """``?o != ?q`` over an OPTIONAL: a missing ``?q`` is one more key
    (an error, so its rows are rejected), not a miss on every row."""
    rows, _stats = run(small, "filter_two_vars_unbound")
    (_expression, read, cells), = readers
    unbound = [cell for cell in cells if cell[1] is None]
    assert len(set(unbound)) < len(unbound)
    assert all(read.memo[cell] is False for cell in unbound)
    assert rows and all("q" in mu for mu in rows)


def capped_evaluations(cells, cap: int) -> int:
    """Evaluations a memo that keeps its first ``cap`` keys runs."""
    kept = []
    evaluations = 0
    for cell in cells:
        if cell not in kept:
            evaluations += 1
            if len(kept) < cap:
                kept.append(cell)
    return evaluations


@pytest.mark.parametrize("name", SHAPES)
def test_capped_memo_keeps_rows(small, reference_bags, readers, monkeypatch,
                                name):
    """Past the cap a new binding is evaluated on every row it occurs in:
    more evaluations, the same rows, and no memo above the cap."""
    monkeypatch.setattr(evaluator_module, "EXPRESSION_MEMO_ENTRIES", 2)
    got, stats = run(small, name)
    assert as_bag(got) == reference_bags[name]
    assert all(len(read.memo) <= 2 for _expression, read, _cells in readers)
    assert stats.expression_evals == sum(
        capped_evaluations(cells, 2) for _expression, _read, cells in readers)


def test_cap_bites(small, readers, monkeypatch):
    monkeypatch.setattr(evaluator_module, "EXPRESSION_MEMO_ENTRIES", 2)
    _rows, stats = run(small, "filter_order_mixed")
    (_expression, _read, cells), = readers
    assert len(set(cells)) < stats.expression_evals < len(cells)


def test_memo_is_per_operator(small, readers):
    """Two FILTERs over the same variable keep separate memos."""
    _rows, stats = run(small, "union_two_filters")
    assert len(readers) == 2
    assert readers[0][1].memo is not readers[1][1].memo
    assert stats.expression_evals == distinct_keys(readers)


# ----------------------------------------------------------------------
# The paper's case studies: distinct bindings, not rows
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def case_data():
    return build_dataset(scale=0.05)


def test_kg_embedding_evaluates_once_per_distinct_object(case_data):
    engine = Engine(case_data)
    result = engine.query(get_case_study("kg_embedding").frame().to_sparql())
    triples = list(case_data.graph(DBLP_URI).triples(None, None, None))
    objects = {o for _s, _p, o in triples}
    assert engine.last_stats.expression_evals == len(objects) < len(triples)
    assert len(result.rows) == sum(isinstance(o, URIRef)
                                   for _s, _p, o in triples)


def test_topic_modeling_evaluates_once_per_distinct_date(case_data, readers):
    """Two ``year(xsd:dateTime(?date))`` FILTERs, the conference ``IN``
    filter and the HAVING each evaluate once per distinct binding that
    reaches them: the date filters cost the distinct ``?date`` ids
    reaching them, not their rows."""
    engine = Engine(case_data)
    engine.query(get_case_study("topic_modeling").frame().to_sparql())
    dates = [entry for entry in readers
             if entry[0].variables() == ["date"]]
    others = [entry for entry in readers
              if entry[0].variables() != ["date"]]
    assert len(dates) == 2
    assert engine.last_stats.expression_evals \
        == distinct_keys(dates) + distinct_keys(others)
    assert distinct_keys(dates) < sum(len(cells) for *_rest, cells in dates)
