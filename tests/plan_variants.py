"""Run a query under a physical plan the planner did not choose.

The engine has no physical switch: join order, join strategy and
sideways filters are the planner's decisions, declared as fields of the
physical tree it builds from the logical one (``Plan.root``, see
:mod:`repro.sparql.physical`; ``Plan.explain()`` prints them).  Tests
that must run the same query under a *different* decision — scans
without their strategy, joins without sideways filters, stars folded
row by row — plan it the normal way, build an alternative physical tree
for the same logical tree and execute that through
``Engine.evaluate_plan``.  A logical rewrite is left out the same way
the planner exposes it: ``optimize_plan(passes=...)`` keeps only the
rules of :data:`~repro.sparql.plan.RULES` reported under the named
passes (e.g. :data:`UNPUSHED`, everything but ``LimitPushdown``), and
the variant re-plans with that table.  Logical and physical
nodes share one child protocol (``children()`` and ``replace(children)``,
which returns the node itself when no child changed), and both are
immutable, so the plan in the engine's cache is never touched: a variant
shares every subtree it does not change.

* :func:`plan_variant` — the plan with the alternative tree;
* :func:`run_variant` — execute it: ``(ResultSet, EvaluationStats)``;
* :class:`Variant` — an engine look-alike whose ``query()`` does both, so
  a variant can sit in a dict of planes next to real engines;
* :func:`remap` — a physical tree with some nodes replaced.
"""

import copy

from repro.sparql.optimizer import Match
from repro.sparql.physical import (AntiJoin, HashJoin, LeftHashJoin, Scan,
                                   SemiJoin, StarCount)
from repro.sparql.plan import RULES, optimize_plan

#: Every pass of the rule table but ``LimitPushdown`` (no slice motion,
#: no ``TopK`` fusion), for ``passes=``.
UNPUSHED = sorted({name for entries in RULES.values() for name, _ in entries}
                  - {"LimitPushdown"})

#: The physical joins, each with a ``sip`` field.
JOINS = (HashJoin, LeftHashJoin, AntiJoin, SemiJoin)


def nodes(node):
    """Every node of a logical or physical tree, pre-order."""
    yield node
    for child in node.children():
        yield from nodes(child)


def remap(node, change):
    """``node``'s physical tree rebuilt bottom-up, each node replaced by
    ``change(node)``."""
    return change(node.replace([remap(child, change)
                                for child in node.children()]))


def nested_loop(scan):
    """``scan`` with its strategy stripped: its patterns matched in plan
    order (the estimate stays)."""
    return scan._replace(strategy=None, eliminate=(),
                         program=tuple(Match(q) for q in scan.logical.triples))


def plan_variant(engine, query, default_graph_uri=None, *, sip=None,
                 strategy=None, star=None, passes=None, ordered=True):
    """``engine``'s plan for ``query`` over an alternative physical tree.

    ``sip``
        Every join's ``sip``: ``False`` for no sideways filter, ``True``
        for one on every join (``NOT EXISTS`` still exports nothing),
        where the planner gives one only to joins whose probe side a
        filter can prune.
    ``strategy``
        ``False`` makes every scan :func:`nested_loop`.
    ``star``
        ``False`` turns every :class:`StarCount` into the ``Group`` it
        counts, whose BGP's rows are then folded.
    ``passes``
        Re-plan with only the rules of these passes instead of reusing
        the cached plan (e.g. :data:`UNPUSHED`).
    ``ordered``
        ``False`` re-plans without graph statistics: no ``JoinOrdering``,
        no ``CostBasedJoinStrategy`` — patterns run in textual order.
    """
    if passes is not None or not ordered:
        parsed = engine._resolve(query)[0]
        graph = engine._planning_graph(parsed.from_graphs, default_graph_uri) \
            if ordered else None
        plan = optimize_plan(parsed, graph=graph, dataset=engine.dataset,
                             passes=passes)
    else:
        plan = copy.copy(engine.plan(query, default_graph_uri))

    def change(node):
        if sip is not None and isinstance(node, JOINS):
            node = node._replace(sip=sip)
        if strategy is False and isinstance(node, Scan):
            node = nested_loop(node)
        if star is False and isinstance(node, StarCount):
            node = node.logical.replace([node.pattern])
        return node

    plan.root = remap(plan.root, change)
    return plan


def run_variant(engine, query, default_graph_uri=None, **changes):
    """Execute :func:`plan_variant` -> ``(ResultSet, EvaluationStats)``."""
    plan = plan_variant(engine, query, default_graph_uri, **changes)
    result, stats, _ = engine.evaluate_plan(plan, default_graph_uri)
    return result, stats


class Variant:
    """An engine look-alike answering ``query()`` on plan variants:
    ``Variant(Engine(g), sip=False).query(text)`` runs every query
    without sideways filters, and ``last_stats`` holds its counters."""

    def __init__(self, engine, **changes):
        self.engine = engine
        self.changes = changes
        self.last_stats = None

    def query(self, text, default_graph_uri=None):
        result, self.last_stats = run_variant(
            self.engine, text, default_graph_uri, **self.changes)
        return result
