"""Expression evaluation over id rows: the per-binding reader, its
outcome store, FILTER and BIND.

Every expression an operator evaluates — a FILTER or BIND expression,
an OPTIONAL condition, HAVING, an aggregate argument — goes through
:func:`expression_reader`, compiled once per operator.  A reader
remembers outcomes in the :class:`OutcomeStore` of the evaluator's
:class:`~repro.rdf.dictionary.TermDictionary`, which every operator and
query over that dictionary shares: an outcome found once stays known for
as long as the ids it is keyed on.
"""

from __future__ import annotations

import threading
from operator import itemgetter
from typing import Dict, Optional

from .. import algebra as alg
from ..expressions import ExpressionError, ebv
from ..solution import RowView, TableStream

#: Most outcomes one dictionary's store holds, over all its expressions;
#: a store that is full drops its largest memo before it takes the next.
OUTCOME_STORE_ENTRIES = 20_000

_MISS = object()  # no outcome remembered for the key
_EMPTY: Dict = {}  # the memo of a signature the store has not seen

#: Outcome kinds: the condition verdict of FILTER, an OPTIONAL's
#: condition and HAVING; BIND's encoded id; an aggregate argument's term.
EBV, ENCODE, TERM = "ebv", "encode", "term"


class OutcomeStore:
    """Outcomes of pure expressions over one dictionary's ids.

    ``memos`` maps a reader's signature — the expression's SPARQL text,
    the names of the variables it reads that its schema holds, and the
    outcome kind — to ``{key: outcome}``, a key being those variables'
    ids in name order (a bare id for one variable, ``()`` for none).
    Ids are never reused, so no write to any graph makes an entry
    stale.  ``entries`` counts the outcomes held; at
    :data:`OUTCOME_STORE_ENTRIES` the store drops its largest memo, so a
    working set larger than the bound costs one evaluation per key per
    refill, never one per row, and the smaller memos stay warm.
    """

    __slots__ = ("memos", "entries", "_lock")

    def __init__(self):
        self.memos: Dict[tuple, Dict] = {}
        self.entries = 0
        self._lock = threading.Lock()

    def put(self, signature: tuple, key, outcome) -> None:
        """Remember ``outcome`` for ``key`` under ``signature``."""
        with self._lock:
            memos = self.memos
            if self.entries >= OUTCOME_STORE_ENTRIES and memos:
                largest = max(memos, key=lambda other: len(memos[other]))
                self.entries -= len(memos.pop(largest))
            memo = memos.get(signature)
            if memo is None:
                memo = memos[signature] = {}
            if key not in memo:
                memo[key] = outcome
                self.entries += 1


def expression_reader(expression, index: Dict[str, int], dictionary, stats,
                      kind: str = TERM):
    """Compile ``expression`` over rows of schema ``index`` into
    ``read(row)``, which evaluates it once per distinct binding for the
    life of ``dictionary``.

    An expression is a pure function of the term ids bound to the
    variables it reads: an id, or an unbound cell, gives the same term or
    the same :class:`ExpressionError` on every row.  So ``read`` keys on
    those cells, taken in variable-name order (a variable absent from
    the schema is unbound everywhere and drops out; a constant
    expression has the one key ``()``), and looks the key up in the
    dictionary's :class:`OutcomeStore`.  The outcome is by ``kind``:
    :data:`EBV` gives the effective boolean value, or False on an error;
    :data:`ENCODE` the id of the term, or None on an error; :data:`TERM`
    the term itself, or None on an error.  Only misses evaluate, through
    a lazy :class:`RowView`, and count in ``stats.expression_evals``.
    """
    names = sorted({name for name in expression.variables()
                    if name in index})
    key_of = (itemgetter(*[index[name] for name in names]) if names
              else (lambda row: ()))
    if kind == EBV:
        to_outcome, failed = ebv, False
    elif kind == ENCODE:
        to_outcome, failed = dictionary.encode, None
    else:
        to_outcome, failed = None, None
    decode = dictionary.decode
    store = dictionary.outcomes
    if store is None:
        # Made on first use.  Two threads may both make one; the one
        # that loses the assignment only goes cold.
        store = dictionary.outcomes = OutcomeStore()
    signature = (expression.sparql(), tuple(names), kind)
    get = store.memos.get(signature, _EMPTY).get

    def read(row):
        nonlocal get
        key = key_of(row)
        value = get(key, _MISS)
        if value is _MISS:
            # Another reader may have stored it since, or the store may
            # have dropped this reader's memo: ask the current one.
            get = store.memos.get(signature, _EMPTY).get
            value = get(key, _MISS)
        if value is not _MISS:
            return value
        stats.expression_evals += 1
        try:
            value = expression.evaluate(RowView(index, row, decode))
            if to_outcome is not None:
                value = to_outcome(value)
        except ExpressionError:
            value = failed
        store.put(signature, key, value)
        return value

    return read


def stream_filter(ev, node: alg.Filter, graph, hint: Optional[int],
                  sip) -> TableStream:
    # The hint survives only as a batch-size bound: a filter may need
    # many input rows per surviving row, so it caps nothing.
    inner = ev.stream(node.pattern, graph, hint, sip)
    # Errors eliminate the solution.
    accept = expression_reader(node.condition, inner.index, ev.dictionary,
                               ev.stats, EBV)

    def batches():
        for batch in inner.batches:
            keep = list(filter(accept, batch))
            if keep:
                yield keep

    return TableStream(inner.variables, ev._meter(batches()))


def stream_extend(ev, node: alg.Extend, graph, hint: Optional[int],
                  sip) -> TableStream:
    # The parser rejects a target already in scope (SPARQL 1.1 §18.2.1),
    # so the variable is always one new column.
    inner = ev.stream(node.pattern, graph, hint, sip)
    # The encoded id, so a repeated value skips the dictionary too; an
    # error leaves the variable unbound.
    value_of = expression_reader(node.expression, inner.index,
                                 ev.dictionary, ev.stats, ENCODE)

    def batches():
        for batch in inner.batches:
            yield [row + (value_of(row),) for row in batch]

    return TableStream(inner.variables + (node.var,), ev._meter(batches()))
