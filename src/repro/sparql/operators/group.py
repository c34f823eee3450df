"""Aggregation: streaming hash groups, the star COUNT read off the graph
indexes, and the aggregate accumulators.

A sideways filter reaches below a Group only on its grouping variables:
pruning a grouping key removes whole groups that could not join anyway;
pruning anything else would corrupt surviving groups' aggregates.
"""

from __future__ import annotations

import operator
from collections import Counter
from decimal import Decimal
from itertools import chain, islice, product
from math import prod
from operator import itemgetter
from typing import Dict, List, Optional

from ...rdf.terms import (XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, Literal,
                          Variable)
from .. import algebra as alg
from ..expressions import VarExpr
from ..physical import StarCount
from ..solution import TableStream
from .expressions import EBV, expression_reader
from .order import sort_key


def stream_group(ev, node: alg.Group, graph, hint: Optional[int],
                 sip) -> TableStream:
    """Streaming hash aggregation: fold input batches into per-group
    accumulator states as they arrive, emit one final batch.

    Its input is *consumed* incrementally (the child BGP/join pipeline
    runs batch by batch and no input table is ever materialized); only
    the per-group states — one small accumulator per aggregate per group
    (:func:`compile_aggregate`) — are held.  It finishes through
    :func:`emit_groups`, as :func:`stream_star` does.

    Group keys hash dense int-id tuples (scalar ids for the common
    one-variable GROUP BY), so group order is the first-seen order of
    the input stream.
    """
    inner = ev.stream(node.pattern, graph, None,
                      {v: s for v, s in sip.items() if v in node.group_vars})
    index = inner.index
    specs = [compile_aggregate(a, index, ev.dictionary, ev.stats)
             for a in node.aggregates]
    positions = [index.get(v) for v in node.group_vars]
    # Scalar keys (the common one-variable GROUP BY) skip per-row tuple
    # construction; a single aggregate's state is the group's state, with
    # no list indirection per row.
    scalar = positions[0] if (len(positions) == 1
                              and positions[0] is not None) else None
    if positions:
        def key_of(row):
            return tuple(None if p is None else row[p] for p in positions)
    else:
        def key_of(row):  # implicit single group
            return ()
    if len(specs) == 1:
        new_state, fold, finish_one = specs[0]

        def finish(state):
            return (finish_one(state),)
    else:
        news, folds, finishes = zip(*specs)

        def new_state():
            return [new() for new in news]

        def fold(states, row):
            for fold_one, state in zip(folds, states):
                fold_one(state, row)

        def finish(states):
            return [finish_one(state)
                    for finish_one, state in zip(finishes, states)]
    stats = ev.stats

    def groups():
        groups: Dict = {}  # key -> aggregate state(s)
        get = groups.get
        folded = 0
        for batch in inner.batches:
            folded += len(batch)
            if scalar is not None:
                for row in batch:
                    key = row[scalar]
                    state = get(key)
                    if state is None:
                        groups[key] = state = new_state()
                    fold(state, row)
            else:
                for row in batch:
                    key = key_of(row)
                    state = get(key)
                    if state is None:
                        groups[key] = state = new_state()
                    fold(state, row)
        stats.accumulator_rows += folded
        yield from groups.items()

    return emit_groups(ev, node, groups(), scalar is not None, new_state,
                       finish)


def stream_star(ev, node: StarCount, graph, hint: Optional[int],
                sip) -> TableStream:
    """A :class:`~repro.sparql.physical.StarCount`: counted by
    :func:`star_count` from the graph's indexes, so no row is built,
    folded or hashed.  The planner emits one only for a single
    :class:`~repro.rdf.graph.Graph`."""
    return emit_groups(ev, node.logical, *star_count(ev, node.star, graph))


def star_count(ev, star, graph):
    """Count a star ``Group`` from the graph's indexes, joining nothing.

    A row of a star's BGP (:class:`~repro.sparql.plan.Star`) is one
    centre with one end per arm, so ``?centre`` is summed out per centre
    (the variable elimination of FAQ / AJAR): for each centre in the
    *drive set* — the smallest arm's candidate centres — that the other
    arms admit, every combination of the key arms' end sets gains the
    product of the non-key arms' sizes, or 1 for ``COUNT(DISTINCT
    ?centre)``.  ``?p dc:creator ?a1 . ?p dc:creator ?a2`` grouped by
    ``?a1 ?a2`` bumps k² pair counters per paper of k authors instead of
    building k² rows.  A one-arm star keyed on its object reads each
    count off the POS row (:meth:`~repro.rdf.graph.Graph.predicate_objects`);
    a one-arm star keyed on its subject drives over that same row.  Both
    meet groups in the row path's first-seen order.  Deadline and cancel
    are checked every 1024 centres; the row budget applies to the groups
    at emit, since a star produces no rows.

    Returns the :func:`emit_groups` arguments after the node.
    """
    ev.stats.bgp_count += 1
    before = graph.sorted_runs_built
    rows, centres = _star_counts(ev, star, graph)
    ev.stats.sorted_runs_built += graph.sorted_runs_built - before
    scalar = len(star.keys) == 1
    if centres is None:  # one count serves every aggregate
        n_aggs = len(star.distinct)
        finished: Dict[int, tuple] = {}  # count -> its aggregate terms

        def finish(count):
            terms = finished.get(count)
            if terms is None:
                finished[count] = terms = (count_literal(count),) * n_aggs
            return terms

        return rows.items(), scalar, int, finish

    def finish(state):  # state = (rows, centres); index it by DISTINCT
        return [count_literal(state[distinct]) for distinct in star.distinct]

    return (((key, (n, centres[key])) for key, n in rows.items()), scalar,
            lambda: (0, 0), finish)


def _star_counts(ev, star, graph):
    """``(rows, centres)``: per group key, its row count and its distinct
    centre count, the latter ``None`` when ``rows`` serves both (no
    non-key leaf arm multiplies rows, or no aggregate counts rows).

    The drive set is filtered by every other arm's candidate set up
    front, so each centre has every arm; a chunk of 1024 centres is then
    counted by one C-level ``Counter.update`` over the chained key
    combinations (or one ``sum`` of weights for the implicit group), and
    only a weighted star with keys loops per centre."""
    lookup = ev.dictionary.lookup
    rows: Counter = Counter()
    if len(star.arms) == 1 and star.keys == (0,) and star.arms[0].out:
        # Keyed on the object: each count is a POS set's size.
        pid = lookup(star.arms[0].predicate)
        pos_row = {} if pid is None else graph.predicate_objects(pid)
        return Counter({o: len(subjects)
                        for o, subjects in pos_row.items()}), None
    admits = []  # per arm, the centres it admits
    leaves = []  # per leaf arm, (predicate id, POS row for an in arm)
    for arm in star.arms:
        pid = lookup(arm.predicate)
        if isinstance(arm.end, Variable):
            if pid is None:
                return rows, None
            row = None if arm.out else graph.predicate_objects(pid)
            leaves.append((pid, row))
            admits.append(graph.predicate_subjects_set(pid) if arm.out
                          else row)
            continue
        end = lookup(arm.end)
        if pid is None or end is None:
            return rows, None  # a constant no graph holds: no rows
        admits.append(graph.subjects_for(pid, end) if arm.out
                      else graph.objects_for(end, pid))
    smallest = min(admits, key=len)
    drive = smallest
    for members in {id(m): m for m in admits if m is not smallest}.values():
        drive = list(filter(members.__contains__, drive))
    leaf_arms = [i for i, arm in enumerate(star.arms)
                 if isinstance(arm.end, Variable)]
    key_at = [leaf_arms.index(i) for i in star.keys]
    weight_at = [] if all(star.distinct) else \
        [n for n, i in enumerate(leaf_arms) if i not in star.keys]
    if not key_at and not weight_at:
        if drive:  # the implicit group: one row per centre
            rows[()] = len(drive)
        return rows, None
    centres: Optional[Counter] = Counter() \
        if weight_at and any(star.distinct) else None
    spo = graph.spo_index()
    centre_iter = iter(drive)
    while True:
        chunk = list(islice(centre_iter, 1024))
        if not chunk:
            break
        ev._check_valves(0, "mid-star")  # a star produces no rows
        # Per leaf arm, each centre's end set: an out arm's from the
        # centre's SPO row, an in arm's from the predicate's POS row.
        ends = [map(itemgetter(pid), map(spo.__getitem__, chunk))
                if row is None else map(row.__getitem__, chunk)
                for pid, row in leaves]
        weights = map(prod, zip(*[map(len, ends[n]) for n in weight_at]))
        if not key_at:  # the implicit group, weighted
            rows[()] += sum(weights)
            if centres is not None:
                centres[()] += len(chunk)
            continue
        keyed = ends[key_at[0]] if len(key_at) == 1 \
            else map(product, *[ends[n] for n in key_at])
        if not weight_at:
            rows.update(chain.from_iterable(keyed))
            continue
        for groups, weight in zip(keyed, weights):
            if centres is not None:
                groups = tuple(groups)
                centres.update(groups)
            for key in groups:
                rows[key] += weight
    return rows, centres


def emit_groups(ev, node, groups, scalar: bool, new_state,
                finish) -> TableStream:
    """Finish a ``Group``: the one emit both executors share.

    ``groups`` yields ``(key, state)`` — a key id when ``scalar``, else a
    tuple of key ids — and ``finish(state)`` gives the aggregate terms
    (``None`` for unbound).  An implicit group (no GROUP BY) over empty
    input still emits one row, from ``new_state()`` (COUNT is 0).  Each
    finished term is encoded; ``HAVING`` is evaluated over the finished
    row (grouping variables + aggregate aliases), where an error
    eliminates the group exactly like FILTER.  The safety valves are
    checked every 1024 groups, so an enormous sweep is abandoned mid-way.
    """
    out_vars = tuple(node.group_vars) + tuple(a.alias
                                              for a in node.aggregates)
    out_index = {v: i for i, v in enumerate(out_vars)}
    # An error eliminates the group, as in FILTER.
    having = None if node.having is None else expression_reader(
        node.having, out_index, ev.dictionary, ev.stats, EBV)
    encode = ev.dictionary.encode

    def implicit(groups):
        """An implicit group exists even over empty input."""
        empty = True
        for item in groups:
            empty = False
            yield item
        if empty:
            yield (), new_state()

    def batches():
        out_rows: List[tuple] = []
        # Finished terms repeat (counts are memoized literals): encode
        # each object once.  The memo holds the term, so its id() is not
        # reused while the memo lives.
        tids: Dict[int, tuple] = {}
        built = 0
        for key, state in (groups if node.group_vars
                           else implicit(groups)):
            built += 1
            if not (built & 1023):
                ev._check_valves(len(out_rows), "at a batch boundary")
            cells = [key] if scalar else list(key)
            for value in finish(state):
                if value is None:
                    cells.append(None)
                    continue
                hit = tids.get(id(value))
                if hit is None:
                    tids[id(value)] = hit = (value, encode(value))
                cells.append(hit[1])
            row = tuple(cells)
            if having is None or having(row):
                out_rows.append(row)
        ev.stats.groups_built += built
        if out_rows:
            yield out_rows

    return TableStream(out_vars, ev._meter(batches()))


# ----------------------------------------------------------------------
# Accumulators
# ----------------------------------------------------------------------

_COUNT_LITERALS: Dict[int, Literal] = {}


def count_literal(n: int) -> Literal:
    """Memoized ``Literal(n)`` for aggregate counts.

    COUNT-heavy groupings finish thousands of groups whose counts are
    drawn from a few dozen distinct small ints; constructing (and later
    re-hashing, when the dictionary interns it) a fresh Literal per group
    is a measurable share of the drain.  Counts repeat across queries
    too, so the cache is module-level; it is bounded by the number of
    distinct counts ever produced, which grows like the log of the data.
    """
    lit = _COUNT_LITERALS.get(n)
    if lit is None:
        _COUNT_LITERALS[n] = lit = Literal(n)
    return lit


def accumulator(function: str, separator: Optional[str] = None):
    """``(new_state, fold(state, value), finish(state))`` for one
    aggregate function — the single production definition of each
    (:data:`~repro.sparql.algebra.AGGREGATE_FUNCTIONS`).

    States are small mutable lists folded one value at a time; ``finish``
    returns a term, or ``None`` for unbound.  COUNT never looks at the
    value, so callers may fold ids or rows into it undecoded.  SUM/AVG add
    left to right (float totals are bit-identical to the reference's batch
    sum); one non-numeric value makes them an error, i.e. unbound.
    MIN/MAX keep the winning input term in ``ORDER BY`` order
    (:func:`~.order.sort_key`), ties broken by ``n3()``, so the winner
    does not depend on the input order.
    """
    if function == "count":
        def new_state():
            return [0]

        def fold(state, value):
            state[0] += 1

        def finish(state):
            return count_literal(state[0])
    elif function == "sample":
        def new_state():
            return [None]

        def fold(state, value):
            if state[0] is None:
                state[0] = value

        def finish(state):
            return state[0]
    elif function == "group_concat":
        new_state = list
        sep = " " if separator is None else separator

        def fold(state, value):
            state.append(value.lexical if isinstance(value, Literal)
                         else str(value))

        def finish(state):
            return Literal(sep.join(state))
    elif function in ("min", "max"):
        wins = operator.lt if function == "min" else operator.gt

        def new_state():
            return [None, None]  # [sort key of the best term, the term]

        def fold(state, value):
            key = sort_key(value)
            best = state[0]
            if best is None or wins(key, best) or (
                    key == best and wins(value.n3(), state[1].n3())):
                state[0] = key
                state[1] = value

        def finish(state):
            return state[1]
    else:  # sum, avg
        def new_state():
            # [total, n, poisoned, saw_double, saw_non_integer]
            return [0, 0, False, False, False]

        def fold(state, value):
            if state[2]:
                return
            if not (isinstance(value, Literal) and value.is_numeric):
                state[2] = True
                return
            state[0] += value.value
            state[1] += 1
            if value.datatype == XSD_DOUBLE:
                state[3] = True
            elif value.datatype != XSD_INTEGER:
                state[4] = True

        if function == "sum":
            def finish(state):
                if state[2]:
                    return None
                if not state[1]:
                    return Literal(0)
                return numeric_literal(state[0], state[3], state[4])
        else:
            def finish(state):
                if state[2] or not state[1]:
                    return None
                return numeric_literal(state[0] / state[1], state[3], True)
    return new_state, fold, finish


def compile_aggregate(aggregate: alg.Aggregate, index: Dict[str, int],
                      dictionary, stats):
    """Compile one aggregate over rows of schema ``index`` into
    ``(new_state, fold(state, row), finish(state))``.

    Input adapter, then optional dedupe, then the function's one
    :func:`accumulator`.  The adapter reads what a row contributes: the
    row itself for ``COUNT(*)``, the id in a bare variable's column, or
    the term an expression evaluates to (:func:`expression_reader`);
    ``None`` (an unbound cell, an evaluation error) contributes nothing.
    DISTINCT (and MIN/MAX, which ignore duplicates) collects those values
    in first-seen order and folds them at finish.  Ids are compared
    undecoded (id equality is term equality) and decoded only on the way
    into a non-COUNT accumulator.
    """
    function, expr = aggregate.function, aggregate.expression
    new_state, step, finish = accumulator(function, aggregate.separator)
    to_term = None  # what turns an adapted value into the folded term
    if expr is None:
        if function != "count":
            # Imported here: the driver imports this module.
            from ..evaluator import EvaluationError
            raise EvaluationError("only COUNT supports *")

        def read(row):
            return row
    elif type(expr) is VarExpr:
        pos = index.get(expr.name)
        if pos is None:
            def read(row):
                return None
        elif function == "count" and not aggregate.distinct:
            # COUNT(?x): a bound test on the id column folded in place
            # (COUNT's state is ``[n]``).
            def fold(state, row):
                if row[pos] is not None:
                    state[0] += 1

            return new_state, fold, finish
        else:
            read = itemgetter(pos)
            if function != "count":
                to_term = dictionary.decode
    else:
        read = expression_reader(expr, index, dictionary, stats)

    # MIN/MAX ignore duplicates, so they fold each distinct value once:
    # a dict store per row, an ORDER BY key per distinct value at finish.
    if aggregate.distinct or function in ("min", "max"):
        def fold(seen, row):
            value = read(row)
            if value is not None:
                seen[value] = None  # a dict keeps first-seen order

        if function == "count":
            def finish_distinct(seen):
                return count_literal(len(seen))
        else:
            def finish_distinct(seen):
                state = new_state()
                for value in seen:
                    step(state, value if to_term is None else to_term(value))
                return finish(state)

        return dict, fold, finish_distinct
    if expr is None:  # COUNT(*): every row counts
        return new_state, step, finish
    if to_term is None:
        def fold(state, row):
            value = read(row)
            if value is not None:
                step(state, value)
    else:
        def fold(state, row):
            value = read(row)
            if value is not None:
                step(state, to_term(value))
    return new_state, fold, finish


def numeric_literal(number, saw_double: bool,
                    saw_non_integer: bool) -> Literal:
    """A SUM/AVG result literal with SPARQL's numeric type promotion.

    Integer inputs promote to ``xsd:decimal`` when the operation leaves
    the integers (AVG divides; a decimal operand infects a SUM); any
    ``xsd:double`` operand makes the result a double.  Earlier revisions
    let Python's float arithmetic turn every non-integer result into
    ``xsd:double``, so ``AVG`` over int/decimal columns silently changed
    datatype; the value itself was and is the same.
    """
    if saw_double:
        return Literal(float(number))
    if saw_non_integer or isinstance(number, float):
        lexical = repr(float(number))
        if "e" in lexical or "E" in lexical:
            # XSD decimal forbids exponent notation; expand to the exact
            # plain form of the shortest-round-trip float repr.
            lexical = format(Decimal(lexical), "f")
        if lexical.endswith(".0"):
            lexical = lexical[:-2]
        return Literal(lexical, datatype=XSD_DECIMAL)
    return Literal(number)
