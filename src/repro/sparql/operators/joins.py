"""Joins: build side materialized, probe side streamed.

Every operator here drains one child into a table (``evaluate``),
indexes it once with the join kernel
(:class:`~repro.sparql.solution.JoinIndex`), and probes it batch by
batch; what is left to the operator is the sideways-filter scope each
child gets and the batch loop.

Sideways information passing (SIP): a build side exports its join-key
id-sets (:func:`sip_exports`) into the BGP leaves of the side evaluated
after it (semi-join filters).  The probe of an inner Join inherits the
enclosing scope too (:func:`sip_merge`); an auxiliary side (LeftJoin's
optional, the MINUS right side, the EXISTS group) never sees an
enclosing join's filter — it is sound for rows that must ultimately
join, but pruning inside an OPTIONAL/MINUS/EXISTS auxiliary would flip
match decisions (a pruned optional row turns into a null-padded one)
rather than remove dead rows.
"""

from __future__ import annotations

from typing import Dict, Optional

from .. import algebra as alg
from ..expressions import ebv
from ..solution import JoinIndex, SolutionTable, TableStream, batched, \
    table_minus
from .expressions import expression_reader


def sip_exports(table: SolutionTable, probe) -> Optional[Dict]:
    """The join-key id-sets a build side exports toward a probe.

    One set per variable that (a) the probe has in scope and (b) is
    bound in *every* build row — an unbound build cell joins with any
    probe value, so such variables export nothing.  A probe candidate
    whose id is outside the set cannot join any build row, which is what
    lets the BGP leaves drop it before a row exists.
    """
    if not table.rows:
        return None
    probe_vars = set(probe.in_scope())
    exports: Dict[str, set] = {}
    for pos, var in enumerate(table.variables):
        if var not in probe_vars:
            continue
        values = set()
        add = values.add
        bound_everywhere = True
        for row in table.rows:
            tid = row[pos]
            if tid is None:
                bound_everywhere = False
                break
            add(tid)
        if bound_everywhere:
            exports[var] = values
    return exports or None


def sip_merge(scope: Dict, exports: Optional[Dict]) -> Dict:
    """``scope`` narrowed by fresh ``exports``.  A variable filtered by
    two enclosing joins keeps the intersection of both sets."""
    if not exports:
        return scope
    if not scope:
        return exports
    merged = dict(scope)
    for var, values in exports.items():
        prev = merged.get(var)
        merged[var] = values if prev is None else (prev & values)
    return merged


def stream_join(ev, node: alg.Join, graph, hint: Optional[int],
                sip) -> TableStream:
    left = ev.evaluate(node.left, graph, sip)  # build side: breaker
    if not left.rows:
        return TableStream(left.variables, ev._meter(iter(())))
    exports = sip_exports(left, node.right) \
        if getattr(node, "sip_eligible", False) else None
    right = ev.stream(node.right, graph, None, sip_merge(sip, exports))
    ev.stats.joins += 1
    index = JoinIndex(left, right, build_is_left=True)

    def batches():
        for batch in right.batches:
            out = index.join(batch)
            if out:
                yield out

    return TableStream(index.variables, ev._meter(batches()))


def stream_leftjoin(ev, node: alg.LeftJoin, graph, hint: Optional[int],
                    sip) -> TableStream:
    exports = None
    if hint is None and getattr(node, "sip_eligible", False):
        # No bounded consumer above, so every preserved row will be
        # pulled anyway: hold them, and prune the optional side to the
        # keys they carry.
        held = ev.evaluate(node.left, graph, sip)
        if not held.rows:
            return TableStream(held.variables, ev._meter(iter(())))
        exports = sip_exports(held, node.right)
        left = TableStream(held.variables,
                           batched(held.rows, ev._cap(None)))
    else:
        left = ev.stream(node.left, graph, hint, sip)
    right = ev.evaluate(node.right, graph, exports)  # build: breaker
    ev.stats.joins += 1
    index = JoinIndex(right, left)
    accept = None
    if node.condition is not None:
        # Tested on each merged row; an error rejects the match.
        accept = expression_reader(
            node.condition, {v: i for i, v in enumerate(index.variables)},
            ev.dictionary.decode, ev.stats, ebv, False)

    def batches():
        for batch in left.batches:
            yield index.left_join(batch, accept)

    return TableStream(index.variables, ev._meter(batches()))


def stream_minus(ev, node: alg.Minus, graph, hint: Optional[int],
                 sip) -> TableStream:
    left = ev.evaluate(node.left, graph, sip)  # breaker: exports need it
    if not left.rows:
        return TableStream(left.variables, ev._meter(iter(())))
    # SIP into the right side: a right row whose key misses every left
    # row's value for an everywhere-bound shared variable is incompatible
    # with all of them, so it can exclude nothing.
    exports = sip_exports(left, node.right) \
        if getattr(node, "sip_eligible", False) else None
    right = ev.evaluate(node.right, graph, exports)
    rows = table_minus(left, right).rows
    return TableStream(left.variables,
                       ev._meter(iter((rows,)) if rows else iter(())))


def stream_filterexists(ev, node: alg.FilterExists, graph,
                        hint: Optional[int], sip) -> TableStream:
    # The existence group is built first, under no enclosing filter, so
    # EXISTS can export its key sets into the streamed pattern side: a
    # pattern row whose everywhere-bound shared variable misses the
    # group's value set has no compatible witness.  NOT EXISTS keeps
    # exactly those rows, so it exports nothing.
    inner = ev.evaluate(node.group, graph)  # breaker
    exports = None
    if not node.negated and getattr(node, "sip_eligible", False):
        exports = sip_exports(inner, node.pattern)
    outer = ev.stream(node.pattern, graph, hint, sip_merge(sip, exports))
    index = JoinIndex(inner, outer)
    negated = node.negated

    def batches():
        for batch in outer.batches:
            keep = index.semi_join(batch, negated)
            if keep:
                yield keep

    return TableStream(outer.variables, ev._meter(batches()))
