"""Expression evaluation over id rows: the per-binding reader, FILTER and
BIND.

Every expression an operator evaluates — a FILTER or BIND expression,
an OPTIONAL condition, HAVING, an aggregate argument — goes through
:func:`expression_reader`, compiled once per operator.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Optional

from .. import algebra as alg
from ..expressions import ExpressionError, ebv
from ..solution import RowView, TableStream

#: Most distinct bindings one operator remembers an expression's outcome
#: for; past it, a new binding is evaluated on every row it occurs in.
EXPRESSION_MEMO_ENTRIES = 1 << 14

_MISS = object()  # no outcome remembered for the key


def expression_reader(expression, index: Dict[str, int], decode, stats,
                      outcome=None, failed=None):
    """Compile ``expression`` over rows of schema ``index`` into
    ``read(row)``, which evaluates it once per distinct binding.

    An expression is a pure function of the term ids bound to the
    variables it reads: an id, or an unbound cell, gives the same term or
    the same :class:`ExpressionError` on every row.  So ``read`` keys on
    those cells (a variable absent from the schema is unbound everywhere
    and drops out; a constant expression has the one key ``()``) and
    remembers each key's outcome: ``outcome(term)`` (the term itself when
    ``outcome`` is None), or ``failed`` when evaluation or ``outcome``
    raises :class:`ExpressionError`.  Only misses evaluate, through a
    lazy :class:`RowView`, and count in ``stats.expression_evals``.  The
    memo (``read.memo``) lives as long as the reader — the operator's
    stream — and stops growing at :data:`EXPRESSION_MEMO_ENTRIES` keys.
    """
    positions = sorted({index[name] for name in expression.variables()
                        if name in index})
    key_of = itemgetter(*positions) if positions else (lambda row: ())
    memo: Dict = {}
    get = memo.get

    def read(row):
        key = key_of(row)
        value = get(key, _MISS)
        if value is not _MISS:
            return value
        stats.expression_evals += 1
        try:
            value = expression.evaluate(RowView(index, row, decode))
            if outcome is not None:
                value = outcome(value)
        except ExpressionError:
            value = failed
        if len(memo) < EXPRESSION_MEMO_ENTRIES:
            memo[key] = value
        return value

    read.memo = memo
    return read


def stream_filter(ev, node: alg.Filter, graph, hint: Optional[int],
                  sip) -> TableStream:
    # The hint survives only as a batch-size bound: a filter may need
    # many input rows per surviving row, so it caps nothing.
    inner = ev.stream(node.pattern, graph, hint, sip)
    # Errors eliminate the solution.
    accept = expression_reader(node.condition, inner.index,
                               ev.dictionary.decode, ev.stats, ebv, False)

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
                                 ev.dictionary.decode, ev.stats,
                                 ev.dictionary.encode, None)

    def batches():
        for batch in inner.batches:
            yield [row + (value_of(row),) for row in batch]

    return TableStream(inner.variables + (node.var,), ev._meter(batches()))
