"""BGP evaluation: step programs of index probes and sorted-run
intersections, run by one chunked expander.

The planner writes each BGP's step program
(:func:`~repro.sparql.optimizer.bgp_program`); :func:`bgp_steps`
instantiates it against a graph — a :class:`~repro.sparql.optimizer.Match`
becomes an index probe (:func:`pattern_step`), an
:class:`~repro.sparql.optimizer.Intersect` a sorted-run intersection
(:func:`intersection_step`) — and :func:`match_bgp` runs the steps.

The one decision taken at run time is :func:`program_for`'s: a sideways
filter that names a variable of a non-``wcoj`` BGP re-orders its
patterns by filter-discounted estimates (:class:`SipAwareStats`), and an
``intersect`` BGP then gets a program rebuilt over the new order.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Optional, Tuple

from ...rdf.terms import Variable
from .. import algebra as alg
from ..optimizer import GraphStatistics, Match, bgp_program, order_patterns
from ..solution import TableStream, batched

#: A sideways filter re-orders a probe BGP only when it keeps at most
#: this fraction of the variable's values under the pattern's predicate.
#: Weaker filters still prune at the leaves, but in the plan-time order —
#: dragging a big scan to the front for a filter that keeps most of it
#: costs more than it saves.
SIP_REORDER_SELECTIVITY = 0.15

#: Above this filter size the per-member occurrence refinement is skipped
#: (the raw size ratio is used instead): probing huge sets would cost more
#: than the ordering decision is worth.
SIP_EFFECTIVE_PROBE_CAP = 512


def stream_bgp(ev, node: alg.BGP, graph, hint: Optional[int],
               sip) -> TableStream:
    ev.stats.bgp_count += 1
    if not node.triples:
        return TableStream((), ev._meter(iter(([()],))))
    if id(node) not in ev._repeated:
        return match_bgp(ev, node, program_for(ev, node, graph, sip),
                         graph, hint, sip)
    # A repeated BGP is matched once for the whole query and replayed,
    # so it is matched without the sideways filters of whichever
    # occurrence happens to come first (sound: they only drop rows the
    # join above discards anyway).  Whether an earlier occurrence has
    # finished is only known when this one is pulled (both branches of a
    # UNION exist before either produces a row), so the choice between
    # replaying and matching waits until then.
    program = program_for(ev, node, graph, {})
    key = (id(graph), program)
    cached = ev._bgp_cache.get(key)
    matched = None if cached is not None \
        else match_bgp(ev, node, program, graph, hint, {})
    schema = matched.variables if cached is None else cached[0]
    return TableStream(schema, _shared_batches(ev, key, schema, matched,
                                               ev._cap(hint)))


def _shared_batches(ev, key: Tuple, schema, matched, cap: int):
    """Batches of a repeated BGP: a replay of what an earlier occurrence
    produced, or ``matched``'s own — filed in the cache once that
    producer is exhausted, never from a partial pull (whose rows are
    only a prefix of the result)."""
    cached = ev._bgp_cache.get(key)
    if cached is not None and cached[0] == schema:
        ev.stats.bgp_cache_hits += 1
        yield from ev._meter(chain.from_iterable(
            batched(batch, cap) for batch in cached[1]))
        return
    kept: List = []
    for batch in matched.batches:
        kept.append(batch)
        yield batch
    ev._bgp_cache.setdefault(key, (schema, kept))


def match_bgp(ev, node: alg.BGP, program, graph, hint: Optional[int],
              sip) -> TableStream:
    """The one BGP driver: breadth-first expansion in chunks.

    The first step materializes once; then each chunk of at most
    ``ev._cap(hint)`` rows runs through the remaining steps in tight
    per-level loops.  A bounded consumer's ``hint`` only sizes the
    chunks: a ``LIMIT`` that stops pulling leaves the remaining chunks
    unexpanded, and the row order (lexicographic probe order) is the
    same for every chunk size.
    """
    cap = ev._cap(hint)
    schema, steps = bgp_steps(ev, node, program, graph, sip)
    first, rest = steps[0], steps[1:]
    n_rest = len(rest)

    def expand(rows, level):
        # Chunk at *every* level, not just the seed: a <= cap chunk with
        # high fan-out would otherwise expand through all remaining
        # patterns into one table-sized batch.  Working set stays at one
        # chunk's single-level fan-out; depth-first recursion over chunks
        # preserves the lexicographic row order.
        if level == n_rest:
            yield from batched(rows, cap)
            return
        step = rest[level]
        for start in range(0, len(rows), cap):
            out: List[tuple] = []
            step(rows[start:start + cap], ev._guarded_append(out))
            if out:
                yield from expand(out, level + 1)

    def batches():
        seed: List[tuple] = []
        first(((),), ev._guarded_append(seed))
        if seed:
            yield from expand(seed, 0)

    return TableStream(schema, ev._meter(batches()))


# ----------------------------------------------------------------------
# The program and its steps
# ----------------------------------------------------------------------

def program_for(ev, node: alg.BGP, graph, sip) -> Tuple:
    """The step program to run for ``node``: the planner's
    ``node.program``, or in-order matches for a BGP it gave none.

    The one run-time decision: a sideways filter in ``sip`` that names a
    variable of a non-``wcoj`` BGP with several patterns first re-orders
    them (:class:`SipAwareStats`); an ``intersect`` BGP then gets
    :func:`~repro.sparql.optimizer.bgp_program` over the new order, any
    other matches it in order.
    """
    patterns = node.triples
    strategy = getattr(node, "strategy", None)
    if strategy != "wcoj" and len(patterns) > 1 \
            and _sip_touches(patterns, sip):
        # The plan-time order was chosen without the build side's key
        # sets; with them in hand, start the probe at the semi-join
        # filter instead of dragging the full scan first — the classic
        # magic-sets effect, per execution and only for BGPs a filter
        # actually touches.
        stats = ev._graph_stats(graph)
        patterns = order_patterns(patterns, SipAwareStats(stats, sip, graph))
        if strategy == "intersect":
            return bgp_program(patterns, stats)
    elif getattr(node, "program", None) is not None:
        return node.program
    return tuple(Match(q) for q in patterns)


def _sip_touches(patterns, sip) -> bool:
    """True when an active sideways filter names a pattern variable."""
    if not sip:
        return False
    for triple in patterns:
        for term in triple:
            if isinstance(term, Variable) and term.name in sip:
                return True
    return False


def bgp_steps(ev, node: alg.BGP, program, graph, sip):
    """Instantiate a BGP step program against ``graph``.

    A :class:`~repro.sparql.optimizer.Match` compiles to an index probe
    (:func:`pattern_step`), an :class:`~repro.sparql.optimizer.Intersect`
    to a sorted-run intersection (:func:`intersection_step`), and a
    generic-join level also counts its input rows in ``wcoj_steps``.
    Returns ``(schema, steps)``.  A constant of the BGP unknown to the
    dictionary leaves one step that matches nothing, under a schema that
    names every BGP variable.
    """
    lookup = ev.dictionary.lookup
    if any(lookup(term) is None for triple in node.triples
           for term in triple if not isinstance(term, Variable)):
        return node.in_scope(), [lambda rows, append: None]
    stats = ev.stats
    schema: List[str] = []
    steps = []
    for op in program:
        if isinstance(op, Match):
            schema, step = pattern_step(ev, op.pattern, schema, graph, sip)
        else:
            step = intersection_step(
                ev, op.var, *_run_operands(ev, op.signatures, schema),
                graph, sip)
            schema = schema + [op.var]
        if op.level:
            def step(rows, append, _inner=step):
                # One wcoj step per input row per level; an
                # intersection's probes keep bumping intersect_steps.
                stats.wcoj_steps += len(rows)
                _inner(rows, append)
        steps.append(step)
    return schema, steps


def pattern_step(ev, pattern, schema: List[str], graph, sip):
    """Compile one triple pattern into ``(new_schema, step)``.

    ``step(rows, append)`` extends each input row (positionally aligned
    with the *old* schema) with the pattern's id-level matches, calling
    ``append`` per output row.  The bound/free shape is analyzed here,
    once per pattern, so the specialized index probe it returns is
    reusable for any number of row chunks.  Every constant term must be
    known to the dictionary (:func:`bgp_steps` checks before compiling).

    A sideways filter in ``sip`` on a fresh variable drops candidate
    bindings at the index probe itself — the pruned combination never
    becomes a row — and counts them in ``stats.sip_filtered_rows``.
    """
    lookup = ev.dictionary.lookup
    index = {v: i for i, v in enumerate(schema)}
    schema = list(schema)
    # A slot per position: ('c', id) constant, ('b', col) bound var,
    # ('n', k) k-th newly-introduced var (repeats share one k).
    slots = []
    new_pos: Dict[str, int] = {}
    for term in pattern:
        if isinstance(term, Variable):
            name = term.name
            col = index.get(name)
            if col is not None:
                slots.append(("b", col))
            elif name in new_pos:
                slots.append(("n", new_pos[name]))
            else:
                k = len(new_pos)
                new_pos[name] = k
                schema.append(name)
                slots.append(("n", k))
        else:
            slots.append(("c", lookup(term)))

    (s_kind, s_val), (p_kind, p_val), (o_kind, o_val) = slots
    n_new = len(new_pos)
    stats = ev.stats

    # The bound/free shape of the pattern is fixed across rows ('b'
    # columns are always bound inside a BGP), so dispatch to a
    # specialized index probe once per *pattern*, not once per row.
    s_free = s_kind == "n"
    p_free = p_kind == "n"
    o_free = o_kind == "n"

    def val_of(kind, val):
        if kind == "c":
            return lambda row, v=val: v
        return lambda row, c=val: row[c]

    if not p_free and not s_free and not o_free:
        # Fully bound: a containment probe per row.
        s_of, p_of, o_of = (val_of(s_kind, s_val), val_of(p_kind, p_val),
                            val_of(o_kind, o_val))
        contains = graph.contains_ids

        def step(rows, append):
            matches = 0
            for row in rows:
                if contains(s_of(row), p_of(row), o_of(row)):
                    matches += 1
                    append(row)
            stats.pattern_matches += matches
    elif not p_free and s_free != o_free:
        # Keyed expansion, one end free: (s, p) -> objects, the classic
        # index-nested-loop step of the paper's flat queries, or
        # (p, o) -> subjects.
        if o_free:
            fetch, key_a, key_b = (graph.objects_for, val_of(s_kind, s_val),
                                   val_of(p_kind, p_val))
            fresh = pattern[2].name
        else:
            fetch, key_a, key_b = (graph.subjects_for, val_of(p_kind, p_val),
                                   val_of(o_kind, o_val))
            fresh = pattern[0].name
        keep = sip.get(fresh) if sip else None

        if keep is None:
            def step(rows, append):
                matches = 0
                for row in rows:
                    found = fetch(key_a(row), key_b(row))
                    if found:
                        matches += len(found)
                        for tid in found:
                            append(row + (tid,))
                stats.pattern_matches += matches
        else:
            def step(rows, append):
                matches = 0
                dropped = 0
                for row in rows:
                    found = fetch(key_a(row), key_b(row))
                    if found:
                        matches += len(found)
                        for tid in found:
                            if tid in keep:
                                append(row + (tid,))
                            else:
                                dropped += 1
                stats.pattern_matches += matches
                stats.sip_filtered_rows += dropped
    elif not p_free and s_free and o_free and p_kind == "c":
        # Predicate scan with a constant predicate: materialize the
        # (s, o) pairs once and reuse them for every input row (the
        # graph memoizes the materialization across queries).
        pairs = graph.so_pairs_list(p_val)
        if slots[0][1] == slots[2][1]:  # ?x p ?x — one new column
            hits = [(s,) for s, o in pairs if s == o]
        else:
            hits = pairs
        dropped_per_row = 0
        if sip:
            # Filter the materialized pairs once at compile time; the
            # per-input-row drop count keeps the counter's meaning
            # (candidate bindings pruned) identical to the row-driven
            # shapes.
            s_filter = sip.get(pattern[0].name)
            o_filter = sip.get(pattern[2].name)
            if s_filter is not None or o_filter is not None:
                kept = [extra for extra in hits
                        if (s_filter is None or extra[0] in s_filter)
                        and (o_filter is None or extra[-1] in o_filter)]
                dropped_per_row = len(hits) - len(kept)
                hits = kept

        def step(rows, append):
            matches = 0
            n_rows = 0
            for row in rows:
                n_rows += 1
                matches += len(pairs)
                for extra in hits:
                    append(row + extra)
            stats.pattern_matches += matches
            if dropped_per_row:
                stats.sip_filtered_rows += dropped_per_row * n_rows
    else:
        # General shape (variable predicate, or repeated fresh
        # variables across positions): slot-interpreting loop.
        triples_ids = graph.triples_ids
        filters_by_slot = {}
        if sip:
            for name, k in new_pos.items():
                flt = sip.get(name)
                if flt is not None:
                    filters_by_slot[k] = flt

        def step(rows, append):
            matches = 0
            dropped = 0
            for row in rows:
                s = None if s_free else (s_val if s_kind == "c"
                                         else row[s_val])
                p = None if p_free else (p_val if p_kind == "c"
                                         else row[p_val])
                o = None if o_free else (o_val if o_kind == "c"
                                         else row[o_val])
                for matched in triples_ids(s, p, o):
                    matches += 1
                    extras = [None] * n_new
                    ok = True
                    for (kind, val), tid in zip(slots, matched):
                        if kind == "n":
                            prev = extras[val]
                            if prev is None:
                                flt = filters_by_slot.get(val)
                                if flt is not None and tid not in flt:
                                    dropped += 1
                                    ok = False
                                    break
                                extras[val] = tid
                            elif prev != tid:
                                # Repeated variable must agree.
                                ok = False
                                break
                    if ok:
                        append(row + tuple(extras))
            stats.pattern_matches += matches
            if dropped:
                stats.sip_filtered_rows += dropped

    return schema, step


def _run_operands(ev, signatures, schema: List[str]):
    """Resolve :func:`~repro.sparql.optimizer.run_signature` tuples into
    operand specs for :func:`intersection_step`: ``static_specs`` are
    ``(kind, pid, oid|None)`` constant-keyed runs, ``row_specs`` are
    ``(kind, pid, column)`` runs re-seeded from a bound row column.
    """
    lookup = ev.dictionary.lookup
    static_specs = []
    row_specs = []
    for kind, predicate, *other in signatures:
        pid = lookup(predicate)
        if kind == "psubjects":
            static_specs.append((kind, pid, None))
        elif isinstance(other[0], tuple):  # ("?", name): bound column
            row_specs.append((kind, pid, schema.index(other[0][1])))
        else:
            static_specs.append((kind, pid, lookup(other[0])))
    return static_specs, row_specs


def intersection_step(ev, var: str, static_specs, row_specs, graph, sip):
    """Build the executable step for one intersection binding.

    Operand handling is leapfrog-style but asymmetric, which is what
    makes it fast in CPython: the narrowest operand becomes the
    sorted-run iteration seed and every other operand an O(1) membership
    probe (the graph's native index sets), so the work is
    ``O(min operand)`` with constant-time elimination — the same
    candidates the galloping :func:`~repro.rdf.graph.intersect_runs`
    would produce, at hash-probe instead of binary-search constants.
    *Static* operands (constant-keyed and predicate-subject runs) are
    merged once at compile time; *row-keyed* operands are re-seeded per
    input row.  Because every seed is sorted, candidates always emerge
    in ascending id order no matter which operand was smallest, keeping
    row order deterministic across executors and strategies.
    """
    stats = ev.stats
    objects_for = graph.objects_for
    subjects_for = graph.subjects_for
    objects_run = graph.objects_run
    subjects_run = graph.subjects_run
    psubjects_run = graph.predicate_subjects_run

    def track(fetch, *args):
        before = graph.sorted_runs_built
        run = fetch(*args)
        built = graph.sorted_runs_built - before
        if built:
            stats.sorted_runs_built += built
        return run

    def dead_step(rows, append):
        # Some operand is statically empty: the step matches nothing,
        # ever, but the schema still gains the variable.
        return

    static_runs: List[tuple] = []
    static_members: List = []
    for kind, pid, other in static_specs:
        if kind == "psubjects":
            run = track(psubjects_run, pid)
            members = graph.predicate_subjects_set(pid)
        elif kind == "subjects":
            run = track(subjects_run, pid, other)
            members = subjects_for(pid, other)
        else:  # objects: constant subject `other`, predicate pid
            run = track(objects_run, other, pid)
            members = objects_for(other, pid)
        if not run:
            return dead_step
        static_runs.append(run)
        static_members.append(members)
    static_candidates = None
    static_set = None
    if static_runs:
        if len(static_runs) > 1:
            # Merge the static operands once at compile time: iterate the
            # narrowest sorted run, eliminate against the others'
            # membership sets.  Every per-input-row execution then starts
            # from the merged candidate list.
            stats.intersect_steps += 1
            seed_at = min(range(len(static_runs)),
                          key=lambda i: len(static_runs[i]))
            merged = static_runs[seed_at]
            for i, members in enumerate(static_members):
                if i != seed_at:
                    merged = [tid for tid in merged if tid in members]
            if not merged:
                return dead_step
            static_candidates = merged
        else:
            static_candidates = static_runs[0]

    sip_filter = sip.get(var) if sip else None

    if not row_specs:
        # Every operand is static: the intersection is already done.
        matched = static_candidates
        dropped = 0
        if sip_filter is not None:
            kept = [tid for tid in matched if tid in sip_filter]
            dropped = len(matched) - len(kept)
            matched = kept

        def static_step(rows, append):
            n_rows = 0
            for row in rows:
                n_rows += 1
                for tid in matched:
                    append(row + (tid,))
            # Count candidates before the SIP drop, exactly like the
            # nested-loop shapes, so pattern_matches means the same thing
            # under every strategy.
            stats.pattern_matches += (len(matched) + dropped) * n_rows
            stats.sip_filtered_rows += dropped * n_rows

        return static_step

    set_fetchers = []
    run_fetchers = []
    for kind, pid, col in row_specs:
        if kind == "subjects":
            set_fetchers.append(lambda row, _p=pid, _c=col:
                                subjects_for(_p, row[_c]))
            run_fetchers.append(lambda row, _p=pid, _c=col:
                                track(subjects_run, _p, row[_c]))
        else:  # objects keyed by a bound subject column
            set_fetchers.append(lambda row, _p=pid, _c=col:
                                objects_for(row[_c], _p))
            run_fetchers.append(lambda row, _p=pid, _c=col:
                                track(objects_run, row[_c], _p))
    n_row = len(set_fetchers)

    def finish(row, matched, append):
        # pattern_matches counts pre-filter candidates (same meaning as
        # the nested-loop shapes); SIP drops are tracked apart.  The
        # specialized shapes below inline this and batch the counter
        # updates per step call — keep their accounting in sync with any
        # change here.
        stats.pattern_matches += len(matched)
        if sip_filter is not None:
            kept = [tid for tid in matched if tid in sip_filter]
            stats.sip_filtered_rows += len(matched) - len(kept)
            matched = kept
        for tid in matched:
            append(row + (tid,))

    if n_row == 1 and static_candidates is not None:
        # One static operand list, one row-keyed operand: the dominant
        # anchored shape (e.g. candidates ∩ (p, o_row)).
        get0, run0 = set_fetchers[0], run_fetchers[0]
        static_len = len(static_candidates)
        static_set = frozenset(static_candidates)

        def step(rows, append):
            steps = 0
            candidates = 0
            for row in rows:
                members = get0(row)
                if not members:
                    continue
                steps += 1
                if static_len <= len(members):
                    matched = [tid for tid in static_candidates
                               if tid in members]
                else:
                    matched = [tid for tid in run0(row)
                               if tid in static_set]
                candidates += len(matched)
                if sip_filter is not None:
                    kept = [tid for tid in matched if tid in sip_filter]
                    stats.sip_filtered_rows += len(matched) - len(kept)
                    matched = kept
                for tid in matched:
                    append(row + (tid,))
            stats.intersect_steps += steps
            stats.pattern_matches += candidates

        return step

    if n_row == 2 and static_candidates is None:
        # Two row-keyed operands: the cyclic-join shape.
        get0, run0 = set_fetchers[0], run_fetchers[0]
        get1, run1 = set_fetchers[1], run_fetchers[1]

        def step(rows, append):
            steps = 0
            candidates = 0
            for row in rows:
                first = get0(row)
                if not first:
                    continue
                second = get1(row)
                if not second:
                    continue
                steps += 1
                if len(first) <= len(second):
                    matched = [tid for tid in run0(row) if tid in second]
                else:
                    matched = [tid for tid in run1(row) if tid in first]
                candidates += len(matched)
                if sip_filter is not None:
                    kept = [tid for tid in matched if tid in sip_filter]
                    stats.sip_filtered_rows += len(matched) - len(kept)
                    matched = kept
                for tid in matched:
                    append(row + (tid,))
            stats.intersect_steps += steps
            stats.pattern_matches += candidates

        return step

    if static_candidates is not None:
        static_set = frozenset(static_candidates)

    def step(rows, append):
        steps = 0
        for row in rows:
            row_sets = []
            dead = False
            for get_set in set_fetchers:
                candidates = get_set(row)
                if not candidates:
                    dead = True
                    break
                row_sets.append(candidates)
            if dead:
                continue
            steps += 1
            if static_candidates is not None and len(static_candidates) \
                    <= min(len(s) for s in row_sets):
                seed = static_candidates
                probes = row_sets
            else:
                best = 0
                best_len = len(row_sets[0])
                for k in range(1, n_row):
                    if len(row_sets[k]) < best_len:
                        best = k
                        best_len = len(row_sets[k])
                seed = run_fetchers[best](row)
                probes = row_sets[:best] + row_sets[best + 1:]
                if static_set is not None:
                    probes.append(static_set)
            if len(probes) == 1:
                p0 = probes[0]
                matched = [tid for tid in seed if tid in p0]
            elif len(probes) == 2:
                p0, p1 = probes
                matched = [tid for tid in seed if tid in p0 and tid in p1]
            else:
                matched = [tid for tid in seed
                           if all(tid in p for p in probes)]
            finish(row, matched, append)
        stats.intersect_steps += steps

    return step


class SipAwareStats:
    """A :class:`GraphStatistics` view that discounts estimates for
    patterns binding sideways-filtered variables.

    A filter keeps at most its *effective* members of a variable's
    distinct values under a predicate — members that never occur in the
    pattern's position (e.g. Egyptian-born athletes against a
    ``starring`` scan) cannot match, so small filters are probed against
    the index to measure real selectivity.  A pattern whose filter keeps
    at most :data:`SIP_REORDER_SELECTIVITY` of the predicate's values has
    its estimate discounted accordingly; feeding these estimates to
    :func:`~repro.sparql.optimizer.order_patterns` moves the filtered
    leaf to the front of the probe's join order.
    """

    def __init__(self, base: GraphStatistics, sip: Dict[str, set], graph):
        self._base = base
        self._sip = sip
        self._graph = graph
        self._effective: Dict[Tuple, int] = {}

    def _effective_count(self, values: set, p, subject_side: bool) -> int:
        """How many filter members actually occur under predicate ``p``
        in the filtered position."""
        key = (id(values), p, subject_side)
        count = self._effective.get(key)
        if count is None:
            if len(values) > SIP_EFFECTIVE_PROBE_CAP:
                count = len(values)
            else:
                graph = self._graph
                pid = graph.dictionary.lookup(p)
                if pid is None:
                    count = len(values)
                elif subject_side:
                    count = sum(1 for v in values
                                if graph.objects_for(v, pid))
                else:
                    count = sum(1 for v in values
                                if graph.subjects_for(pid, v))
            self._effective[key] = count
        return count

    def estimate(self, pattern, bound) -> float:
        estimate = self._base.estimate(pattern, bound)
        s, p, o = pattern
        if isinstance(p, Variable):
            return estimate
        if isinstance(s, Variable) and s.name in self._sip \
                and s.name not in bound:
            universe = max(1, self._base.distinct_subjects(p))
            kept = self._effective_count(self._sip[s.name], p, True)
            if kept / universe <= SIP_REORDER_SELECTIVITY:
                estimate *= kept / universe
        if isinstance(o, Variable) and o.name in self._sip \
                and o.name not in bound:
            universe = max(1, self._base.distinct_objects(p))
            kept = self._effective_count(self._sip[o.name], p, False)
            if kept / universe <= SIP_REORDER_SELECTIVITY:
                estimate *= kept / universe
        return max(estimate, 0.001)
