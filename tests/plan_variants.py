"""Run a query on a private copy of its plan with changed annotations.

The engine has no physical switch: join order, join strategy and
sideways filters are the planner's decisions, written on the plan it
caches (``Plan.explain()`` prints them).  Tests that must run the same
query under a *different* decision — a BGP without its strategy, joins
without sideways filters, a plan without ``LimitPushdown`` — plan it the
normal way, copy the plan, change the copy and execute the copy through
``Engine.evaluate_plan``.  The plan in the engine's cache is never
touched.

* :func:`plan_variant` — the changed private copy;
* :func:`run_variant` — execute it: ``(ResultSet, EvaluationStats)``;
* :class:`Variant` — an engine look-alike whose ``query()`` does both, so
  a variant can sit in a dict of planes next to real engines.
"""

import copy

from repro.sparql import algebra as alg
from repro.sparql.plan import DEFAULT_PASSES, optimize_plan

#: The rewrite pipeline without ``LimitPushdown`` (no slice motion, no
#: ``TopK`` fusion), for ``passes=``.
UNPUSHED = [entry for entry in DEFAULT_PASSES if entry[0] != "LimitPushdown"]

#: Nodes the planner may mark ``sip_eligible``.
JOIN_NODES = (alg.Join, alg.LeftJoin, alg.Minus, alg.FilterExists)

#: What ``strategy=False`` removes from a BGP: the CostBasedJoinStrategy
#: routing and the step program it chose, leaving the plain nested-loop
#: plan (estimates stay).
STRATEGY_ATTRS = ("strategy", "eliminate", "est_cost", "program")


def nodes(node):
    """Every node of an algebra tree, pre-order."""
    yield node
    for child in node.children():
        yield from nodes(child)


def _copy_tree(node):
    """Fresh node objects all the way down, annotations included (terms,
    triple lists and expressions stay shared; nothing mutates them)."""
    clone = copy.copy(node)
    for name in ("pattern", "left", "right", "group"):
        child = getattr(node, name, None)
        if isinstance(child, alg.AlgebraNode):
            setattr(clone, name, _copy_tree(child))
    return clone


def plan_variant(engine, query, default_graph_uri=None, *, sip=None,
                 strategy=None, passes=None, ordered=True):
    """A private copy of ``engine``'s plan for ``query``, changed as asked.

    ``sip``
        ``False`` strips every ``sip_eligible`` mark; ``True`` marks every
        join node, where the planner would mark only those whose probe
        side a filter can prune.
    ``strategy``
        ``False`` strips every BGP's strategy annotation: nested-loop.
    ``passes``
        Re-plan with this rewrite pipeline instead of copying the cached
        plan (e.g. the default passes minus ``LimitPushdown``).
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
        cached = engine.plan(query, default_graph_uri)
        plan = copy.copy(cached)
        plan.query = alg.Query(_copy_tree(cached.query.pattern),
                               from_graphs=list(cached.query.from_graphs),
                               prefixes=dict(cached.query.prefixes))
    for node in nodes(plan.query.pattern):
        if sip is not None and isinstance(node, JOIN_NODES):
            if sip:
                node.sip_eligible = True
            else:
                vars(node).pop("sip_eligible", None)
        if strategy is False and isinstance(node, alg.BGP):
            for name in STRATEGY_ATTRS:
                vars(node).pop(name, None)
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
