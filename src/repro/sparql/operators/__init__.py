"""The production operators, one module per decision.

Every operator is a function ``op(evaluator, node, graph, hint, sip)``
returning a :class:`~repro.sparql.solution.TableStream`; the driver
(:mod:`repro.sparql.evaluator`) maps each node type of the physical
tree (:mod:`repro.sparql.physical`) to one of them in
:data:`~repro.sparql.evaluator.OPERATORS`.

* :mod:`.bgp` — BGP step programs: index probes and sorted-run
  intersections.
* :mod:`.joins` — Join, LeftJoin, Minus and FILTER (NOT) EXISTS, and the
  key sets a build side exports sideways.
* :mod:`.group` — hash aggregation, the star COUNT read off the indexes
  and the aggregate accumulators.
* :mod:`.order` — ORDER BY, top-k and LIMIT/OFFSET windows.
* :mod:`.expressions` — the per-binding expression reader, FILTER and
  BIND.
* :mod:`.pipeline` — the stateless reshapers: projection, UNION,
  DISTINCT, GRAPH scoping and VALUES.
"""
