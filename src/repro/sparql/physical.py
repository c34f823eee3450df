"""The physical plan: the planner's decisions as declared node types.

The rewrite passes of :mod:`.plan` return a *logical* tree: what to
compute.  :func:`~.plan.lower` builds from it the *physical* tree the
operators run.  Each node the planner decides something about becomes
one of the immutable types below, whose fields are those decisions;
every other node is its logical node rebuilt over physical children.
The logical tree itself is never annotated or changed.

* :class:`Scan` — a BGP with its step program, its estimated rows and,
  for generic join, its variable elimination order;
* :class:`StarCount` — a ``Group`` counted from the indexes;
* :class:`HashJoin`, :class:`LeftHashJoin`, :class:`AntiJoin` and
  :class:`SemiJoin` — ``Join``, ``LeftJoin`` (OPTIONAL), ``Minus`` and
  ``FILTER [NOT] EXISTS``, each with ``sip``: whether the side it builds
  first exports its join-key sets into the other side's BGP leaves.

Each holds the logical node it implements (``logical``), which answers
for its variables in scope and its rendering, so :func:`explain_lines`
prints a physical tree as the logical one plus a ``[...]`` block of
decisions per node.  As on a logical node, ``CHILDREN`` names the fields
that hold its children, read by ``children()`` and rebuilt by
``replace(children)``, so one walk serves both trees.
"""

from __future__ import annotations

from operator import is_
from typing import List, NamedTuple, Optional, Set, Tuple

from ..rdf.terms import Variable
from . import algebra as alg
from .optimizer import (Intersect, Match, SipAwareStats, bgp_program,
                        order_patterns)


def _children(self) -> Tuple:
    return tuple(getattr(self, name) for name in self.CHILDREN)


def _replace(self, children):
    """This node over ``children`` (in ``children()`` order); ``self``
    when each child is the same object."""
    if all(map(is_, children, _children(self))):
        return self
    return self._replace(**dict(zip(self.CHILDREN, children)))


def _physical(kind):
    """Declare a physical node type: the fields its ``CHILDREN`` names
    hold its children (``children()`` and ``replace(children)``, as on a
    logical node), and its logical node answers for its variables in
    scope and its rendering."""
    kind.children = _children
    kind.replace = _replace
    kind.in_scope = _logical_scope
    kind.__repr__ = _logical_repr
    return kind


def _logical_scope(node) -> List[str]:
    return node.logical.in_scope()


def _logical_repr(node) -> str:
    return repr(node.logical)


@_physical
class Scan(NamedTuple):
    """A BGP, matched by its step program (:func:`~.optimizer.bgp_program`).

    ``strategy`` is ``None`` for nested loops (the program matches the
    patterns in order), ``'intersect'``, or ``'wcoj'`` for generic join
    along ``eliminate``.  ``est_rows`` is ``None`` when the planner had
    no statistics.  A ``shared`` scan's pattern set occurs more than
    once in the query: it is matched once and replayed.
    """
    logical: alg.BGP
    program: Tuple
    strategy: Optional[str] = None
    est_rows: Optional[float] = None
    eliminate: Tuple[str, ...] = ()
    shared: bool = False

    CHILDREN = ()

    def program_for(self, sip, graph, stats_for) -> Tuple:
        """The step program to run under the sideways filter ``sip``.

        The planned one, unless ``sip`` names a variable of a non-``wcoj``
        scan with several patterns.  The plan-time order was chosen
        without the build side's key sets; with them in hand, the
        patterns are re-ordered by filter-discounted estimates
        (:class:`~.optimizer.SipAwareStats`) so the probe starts at the
        semi-join filter instead of dragging the full scan first — the
        classic magic-sets effect, per execution and only for scans a
        filter actually touches.  An ``intersect`` scan then gets
        :func:`~.optimizer.bgp_program` over the new order, any other
        matches it in order.  ``stats_for`` maps a graph to its
        :class:`~.optimizer.GraphStatistics`.
        """
        triples = self.logical.triples
        if self.strategy == "wcoj" or len(triples) < 2 or not sip \
                or not any(isinstance(term, Variable) and term.name in sip
                           for triple in triples for term in triple):
            return self.program
        stats = stats_for(graph)
        patterns = order_patterns(triples, SipAwareStats(stats, sip, graph))
        if self.strategy == "intersect":
            return bgp_program(patterns, stats)
        return tuple(Match(q) for q in patterns)


@_physical
class StarCount(NamedTuple):
    """A ``Group`` over a BGP that is a :class:`~.plan.Star`, counted
    from a graph's indexes without joining the BGP
    (:func:`~.operators.group.star_count`).  ``pattern`` is that BGP as
    an in-order scan, which the star never runs."""
    logical: alg.Group
    pattern: Scan
    star: Tuple

    CHILDREN = ("pattern",)


@_physical
class HashJoin(NamedTuple):
    """``Join``: ``left`` is built into a hash index, ``right`` probes
    it."""
    logical: alg.Join
    left: object
    right: object
    sip: bool = False

    CHILDREN = ("left", "right")


@_physical
class LeftHashJoin(NamedTuple):
    """``LeftJoin`` (OPTIONAL): the optional ``right`` side is built and
    every ``left`` row is kept.  With ``sip`` and no bounded consumer
    above, ``left`` is held first and its keys prune ``right``."""
    logical: alg.LeftJoin
    left: object
    right: object
    sip: bool = False

    CHILDREN = ("left", "right")


@_physical
class AntiJoin(NamedTuple):
    """``Minus``: ``left`` rows without a compatible, domain-overlapping
    ``right`` row."""
    logical: alg.Minus
    left: object
    right: object
    sip: bool = False

    CHILDREN = ("left", "right")


@_physical
class SemiJoin(NamedTuple):
    """``FILTER [NOT] EXISTS``: ``group`` is built first, and a
    ``pattern`` row is kept when a compatible ``group`` row exists (when
    none does, under ``NOT``)."""
    logical: alg.FilterExists
    pattern: object
    group: object
    sip: bool = False

    CHILDREN = ("pattern", "group")


#: The node types that carry a planner decision.
DECIDED = (Scan, StarCount, HashJoin, LeftHashJoin, AntiJoin, SemiJoin)


def explain_lines(from_graphs, root) -> List[str]:
    """A tree, logical or physical, one node per line indented by depth,
    under a ``FROM`` header.

    A decided node's line ends in a ``[...]`` block of its decisions: a
    scan's strategy, estimated rows and elimination order, ``sip`` on a
    join, ``count=star ?c`` on a star.  A scan with a strategy lists its
    program below it, one step per line (:func:`program_lines`).
    """
    lines = ["FROM %s" % (from_graphs,)]

    def walk(node, depth):
        notes = _notes(node) if isinstance(node, DECIDED) else ()
        lines.append("  " * depth + repr(node)
                     + (" [%s]" % ", ".join(notes) if notes else ""))
        if isinstance(node, Scan) and node.strategy is not None:
            lines.extend("  " * (depth + 1) + step
                         for step in program_lines(node.program))
        for child in node.children():
            walk(child, depth + 1)

    walk(root, 0)
    return lines


def _notes(node) -> List[str]:
    """The decisions a decided node's explain line shows."""
    if isinstance(node, StarCount):
        return ["count=star ?%s" % node.star.centre]
    if not isinstance(node, Scan):
        return ["sip"] if node.sip else []
    notes = [] if node.strategy is None else ["strategy=%s" % node.strategy]
    if node.est_rows is not None:
        notes.append("est_rows=%d" % round(node.est_rows))
    if node.eliminate:
        notes.append("eliminate=%s"
                     % "->".join("?" + v for v in node.eliminate))
    return notes


def program_lines(program) -> List[str]:
    """One line per step of a BGP program (``level`` marks a generic-join
    level):

    * ``match ?v <- (s p o)`` — an index probe binding ``?v``;
    * ``check (s p o)`` — a probe that binds nothing new;
    * ``intersect ?v <- run & run ...`` — ``?v`` bound by intersecting
      sorted runs, each written as the pattern it comes from with ``_``
      for a position the run leaves free.
    """
    lines = []
    bound: Set[str] = set()
    for step in program:
        level = "level " if step.level else ""
        if isinstance(step, Intersect):
            bound.add(step.var)
            lines.append("%sintersect ?%s <- %s" % (
                level, step.var, " & ".join(_run_text(sig, step.var)
                                            for sig in step.signatures)))
            continue
        names = [t.name for t in step.pattern if isinstance(t, Variable)]
        fresh = " ".join("?" + v for v in dict.fromkeys(names)
                         if v not in bound)
        bound.update(names)
        text = "(%s)" % " ".join(t.n3() for t in step.pattern)
        lines.append("%smatch %s <- %s" % (level, fresh, text) if fresh
                     else "check " + text)
    return lines


def _run_text(signature, var: str) -> str:
    """A :func:`~.optimizer.run_signature` as the pattern it reads."""
    kind, predicate = signature[0], signature[1].n3()
    if kind == "psubjects":
        return "(?%s %s _)" % (var, predicate)
    other = signature[2]
    other = "?" + other[1] if isinstance(other, tuple) else other.n3()
    if kind == "subjects":
        return "(?%s %s %s)" % (var, predicate, other)
    return "(%s %s ?%s)" % (other, predicate, var)
