"""Laws of the aggregate functions, checked with hypothesis.

Random multisets of integer, decimal and string literals, IRIs and
unbound values go through every aggregate function x DISTINCT, with
empty input included:

* folding the rows in any order into the production accumulator
  (:func:`~repro.sparql.evaluator._compile_aggregate`) and finishing
  equals the reference plane's own batch aggregate
  (:func:`~repro.sparql.reference._apply_aggregate`) over the same rows;
* COUNT, SUM, AVG, MIN and MAX do not depend on the input order;
* SAMPLE returns a member of the input;
* the column-at-a-time COUNT folds build the same groups as the row fold.

Decimals are multiples of 1/4 and integers are small, so every float sum
is exact: SUM / AVG order-invariance is then a law of the accumulator,
not a rounding accident.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.rdf import Literal, TermDictionary, URIRef
from repro.rdf.terms import XSD_DECIMAL
from repro.sparql import parse
from repro.sparql.evaluator import _compile_aggregate, _count_column_fold
from repro.sparql.reference import _apply_aggregate
from repro.sparql.solution import ColumnBatch

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
    new_state, fold_row, finish = _compile_aggregate(
        aggregate, {"v": 0}, DICTIONARY.decode)
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


@pytest.mark.parametrize("argument,distinct",
                         [("*", False), ("?v", False), ("?v", True)])
@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(st.integers(0, 3), CELLS), max_size=16))
def test_column_fold_matches_row_fold(argument, distinct, rows):
    aggregate = aggregate_of("count", distinct, argument)
    index = {"k": 0, "v": 1}
    new_state, fold_row, finish = _compile_aggregate(
        aggregate, index, DICTIONARY.decode)
    id_rows = [(key, None if cell is None else DICTIONARY.encode(cell))
               for key, cell in rows]
    by_rows: dict = {}
    for row in id_rows:
        state = by_rows.get(row[0])
        if state is None:
            by_rows[row[0]] = state = new_state()
        fold_row(state, row)
    by_columns: dict = {}
    cfold = _count_column_fold(aggregate, index, 0, new_state)
    cfold(by_columns, by_columns.get, ColumnBatch.from_rows(id_rows, 2))
    assert list(by_columns) == list(by_rows)  # first-seen group order
    assert {k: finish(s) for k, s in by_columns.items()} \
        == {k: finish(s) for k, s in by_rows.items()}
