"""The stateless reshapers, fully pipelined: projection, UNION, DISTINCT,
GRAPH scoping and VALUES."""

from __future__ import annotations

from typing import Optional

from .. import algebra as alg
from .. import solution
from ..solution import TableStream, batched


def stream_inlinedata(ev, node: alg.InlineData, graph, hint: Optional[int],
                      sip) -> TableStream:
    encode = ev.dictionary.encode
    rows = [tuple(None if value is None else encode(value) for value in row)
            for row in node.rows]
    return TableStream(node.variables, ev._meter(batched(rows,
                                                         ev._cap(hint))))


def stream_project(ev, node: alg.Project, graph, hint: Optional[int],
                   sip) -> TableStream:
    if node.variables is not None and sip:
        # A subquery's unprojected variables are its own: a filter on an
        # outer variable of the same name must not reach them.
        sip = {v: s for v, s in sip.items() if v in node.variables}
    inner = ev.stream(node.pattern, graph, hint, sip)
    if node.variables is None:
        # SELECT *: drop synthetic aggregate helper variables.
        keep = [v for v in inner.variables if not v.startswith("__agg_")]
        if len(keep) == len(inner.variables):
            return inner
        variables = keep
    else:
        variables = list(node.variables)
    positions = [inner.index.get(v) for v in variables]

    def batches():
        if None in positions:
            for batch in inner.batches:
                yield [tuple([None if p is None else row[p]
                              for p in positions]) for row in batch]
        elif len(positions) == 1:
            p0 = positions[0]
            for batch in inner.batches:
                yield [(row[p0],) for row in batch]
        else:
            for batch in inner.batches:
                yield [tuple([row[p] for p in positions]) for row in batch]

    return TableStream(variables, ev._meter(batches()))


def stream_union(ev, node: alg.Union, graph, hint: Optional[int],
                 sip) -> TableStream:
    left = ev.stream(node.left, graph, hint, sip)
    right = ev.stream(node.right, graph, hint, sip)
    out_vars = left.variables + tuple(v for v in right.variables
                                      if v not in left.index)
    pad = (None,) * (len(out_vars) - len(left.variables))
    rmap = [right.index.get(v) for v in out_vars]

    def batches():
        for batch in left.batches:
            yield [row + pad for row in batch] if pad else batch
        for batch in right.batches:
            yield [tuple(None if p is None else row[p] for p in rmap)
                   for row in batch]

    return TableStream(out_vars, ev._meter(batches()))


def stream_distinct(ev, node: alg.Distinct, graph, hint: Optional[int],
                    sip) -> TableStream:
    # A dedup typically consumes many duplicate rows per distinct row it
    # emits: inflate the child batch size so a bounded consumer above
    # (DISTINCT ... LIMIT k) doesn't drive the producer in k-row
    # micro-batches.
    child_hint = None if hint is None else max(hint * 16, 64)
    inner = ev.stream(node.pattern, graph, child_hint, sip)
    return TableStream(inner.variables,
                       ev._meter(solution.stream_distinct(inner.batches)))


def stream_graphpattern(ev, node: alg.GraphPattern, graph,
                        hint: Optional[int], sip) -> TableStream:
    return ev.stream(node.pattern, ev.dataset.graph_or_empty(node.graph_uri),
                     hint, sip)
