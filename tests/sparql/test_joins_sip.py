"""Differential + behavioral suite for the join subsystem.

The join corpus (:mod:`repro.workload.joins` — star, cyclic, chain,
self-join, and semi-join shapes) runs on the dict-based ``reference``
evaluator and on the production operators under every combination of

* the planner's ``sip_eligible`` marks as planned, forced onto every
  join, or stripped (sideways information passing: join build sides
  export key id-sets into probe-side BGP leaves),
* the planner's BGP ``strategy`` as planned or stripped (sorted-run
  intersection and generic join vs. nested loops),

each a private copy of the plan (:mod:`plan_variants`), and every
combination must return the identical row bag.  A hand-written corpus
(BIND in its three shapes, an IRI-equality FILTER, DISTINCT, a grouped
COUNT) rides through the same differential.  Under any one set of
annotations, a stream hint (which only sizes the chunks each BGP expands
breadth-first) must leave the rows and their order unchanged.
The planned engine must
additionally *prove* its mechanisms through the ``sip_filtered_rows`` /
``intersect_steps`` / ``sorted_runs_built`` counters, and the soundness
edges — OPTIONAL padding, MINUS, NOT EXISTS, subquery LIMIT windows,
aggregate probes — are pinned with targeted queries.
"""

import itertools

import pytest

from repro.data import DBPEDIA_URI, build_dataset
from repro.rdf import DBPP, DBPR, Graph
from repro.sparql import Engine, Evaluator
from repro.sparql.optimizer import Intersect
from repro.workload import (CASE_STUDIES, JOIN_QUERIES, get_case_study,
                            get_join_query)

from plan_variants import UNPUSHED, Variant, nodes, plan_variant, run_variant

PFX = """
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
PREFIX dbpr: <http://dbpedia.org/resource/>
"""


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(scale=0.05)


@pytest.fixture(scope="module")
def engines(dataset):
    """The reference, the planned engine, and every annotation variant of
    its plans (``None`` = as planned)."""
    planned = Engine(dataset)
    out = {"reference": Engine(dataset, columnar=False), "planned": planned}
    for sip, strategy in itertools.product((None, True, False),
                                           (None, False)):
        if (sip, strategy) != (None, None):
            out["sip=%s/strategy=%s" % (sip, strategy)] = Variant(
                planned, sip=sip, strategy=strategy)
    return out


#: Shapes the join corpus lacks, keyed like the corpus entries.
HAND_WRITTEN = {
    "hand_costar": PFX + """
SELECT ?a ?b WHERE { ?film dbpp:starring ?a . ?film dbpp:starring ?b }""",
    "hand_bgp3": PFX + """
SELECT ?film ?actor ?place WHERE {
    ?film rdf:type dbpo:Film .
    ?film dbpp:starring ?actor .
    ?actor dbpp:birthPlace ?place .
}""",
    "hand_filter_eq": PFX + """
SELECT ?film ?actor WHERE {
    ?film dbpp:starring ?actor .
    ?film dbpp:country ?country .
    FILTER(?country = <http://dbpedia.org/resource/United_States>)
}""",
    "hand_distinct_actors": PFX + """
SELECT DISTINCT ?actor WHERE { ?film dbpp:starring ?actor }""",
    "hand_group_count": PFX + """
SELECT ?actor (COUNT(?film) AS ?n) WHERE {
    ?film dbpp:starring ?actor .
} GROUP BY ?actor""",
    # Extend's three shapes: a variable copy, a constant, a computed value.
    "hand_bind_shapes": PFX + """
SELECT ?film ?copy ?one ?label WHERE {
    ?film dbpp:starring ?actor .
    BIND(?actor AS ?copy) BIND(1 AS ?one) BIND(STR(?actor) AS ?label)
}""",
}


def row_bag(result):
    order = sorted(range(len(result.variables)),
                   key=lambda i: result.variables[i])
    return sorted(tuple(repr(row[i]) for i in order) for row in result.rows)


@pytest.fixture(params=[q.key for q in JOIN_QUERIES])
def join_query(request):
    return get_join_query(request.param)


@pytest.fixture(params=[q.key for q in JOIN_QUERIES] + list(HAND_WRITTEN))
def differential_query(request):
    """``(key, sparql)`` of a join-corpus or hand-written query."""
    if request.param in HAND_WRITTEN:
        return request.param, HAND_WRITTEN[request.param]
    return request.param, get_join_query(request.param).sparql


class TestJoinCorpusDifferential:
    def test_all_planes_and_variants_agree(self, engines, differential_query):
        name, sparql = differential_query
        want = row_bag(engines["reference"].query(
            sparql, default_graph_uri=DBPEDIA_URI))
        assert want, "corpus query %s returns no rows at test scale" % name
        for key, engine in engines.items():
            if key == "reference":
                continue
            got = row_bag(engine.query(sparql,
                                       default_graph_uri=DBPEDIA_URI))
            assert got == want, "%s disagrees on %s" % (key, name)

    def test_same_flags_same_rows_across_bgp_paths(self, dataset, engines,
                                                   differential_query):
        """With identical annotations, a stream hint changes batch sizes,
        never rows: an unhinted BGP expands in chunks of
        ``STREAM_BATCH_ROWS``, a hinted one in chunks of the hint, and
        both must return literally identical rows."""
        name, sparql = differential_query
        for sip, strategy in itertools.product((None, False), repeat=2):
            plan = plan_variant(engines["planned"], sparql, DBPEDIA_URI,
                                sip=sip, strategy=strategy)
            runs = {hint: Evaluator(dataset).evaluate_plan_stream(
                        plan, DBPEDIA_URI, hint).to_table().rows
                    for hint in (None, 1, 7)}
            assert runs[None], name
            for hint in (1, 7):
                assert runs[hint] == runs[None], \
                    "%s, sip=%s strategy=%s hint=%s" % (name, sip, strategy,
                                                        hint)


class TestCounterProofs:
    """The mechanisms must be observable where the planner chose them.

    A fresh (function-scoped) dataset guarantees ``sorted_runs_built``
    counts this query's lazy builds instead of hitting runs cached by an
    earlier test.
    """

    def test_multiway_counters(self):
        # use_cache=False: the shared cached dataset already carries runs
        # built by other tests, which would zero this query's build count.
        dataset = build_dataset(scale=0.05, use_cache=False)
        engine = Engine(dataset)
        query = get_join_query("triangle_costar_country")
        engine.query(query.sparql, default_graph_uri=DBPEDIA_URI)
        stats = engine.last_stats
        assert stats.intersect_steps > 0
        assert stats.sorted_runs_built > 0

    def test_sip_counters(self, engines):
        engine = engines["planned"]
        query = get_join_query("sip_egypt_costar")
        engine.query(query.sparql, default_graph_uri=DBPEDIA_URI)
        assert engine.last_stats.sip_filtered_rows > 0

    def test_stripped_annotations_mean_counters_zero(self, engines,
                                                     join_query):
        engine = engines["sip=False/strategy=False"]
        engine.query(join_query.sparql, default_graph_uri=DBPEDIA_URI)
        stats = engine.last_stats
        assert stats.sip_filtered_rows == 0
        assert stats.intersect_steps == 0
        assert stats.sorted_runs_built == 0

    def test_wcoj_steps_follow_the_plan(self, engines, join_query):
        """Generic-join levels run exactly where the planner routed a BGP
        to ``strategy='wcoj'``."""
        from repro.sparql import algebra as alg
        engine = engines["planned"]
        plan = engine.plan(join_query.sparql, DBPEDIA_URI)
        routed = any(getattr(node, "strategy", None) == "wcoj"
                     for node in nodes(plan.query.pattern)
                     if isinstance(node, alg.BGP))
        engine.execute_plan(plan, DBPEDIA_URI)
        assert (engine.last_stats.wcoj_steps > 0) == routed

    @pytest.mark.parametrize("source, key", [
        ("join", q.key) for q in JOIN_QUERIES] + [
        ("case", case.key) for case in CASE_STUDIES])
    def test_program_steps_are_what_ran(self, dataset, source, key):
        """The BGP programs in the plan are the execution: a plan has an
        intersection step iff ``intersect_steps > 0``, and a generic-join
        level step iff ``wcoj_steps > 0``."""
        engine = Engine(dataset)
        if source == "join":
            query, graph_uri = get_join_query(key).sparql, DBPEDIA_URI
        else:
            query, graph_uri = get_case_study(key).frame().query_model(), None
        plan = engine.plan(query, graph_uri)
        steps = [step for node in nodes(plan.query.pattern)
                 for step in getattr(node, "program", ())]
        engine.execute_plan(plan, graph_uri)
        stats = engine.last_stats
        assert any(isinstance(step, Intersect) for step in steps) \
            == (stats.intersect_steps > 0)
        assert any(step.level for step in steps) == (stats.wcoj_steps > 0)

    def test_unknown_constant_empties_a_planned_program(self, dataset):
        """A program may name a term the dictionary has never seen: the
        BGP is empty, and its schema still names every variable."""
        engine = Engine(dataset)
        plan = engine.plan(PFX + """
            SELECT * WHERE { ?a dbpp:collaborator ?b .
                ?b dbpp:collaborator ?c . ?a dbpp:collaborator ?c .
                ?c dbpp:noSuchPredicate ?d }""", DBPEDIA_URI)
        assert any(getattr(node, "program", None)
                   for node in nodes(plan.query.pattern))
        result = engine.execute_plan(plan, DBPEDIA_URI)
        assert len(result) == 0
        assert sorted(result.variables) == ["a", "b", "c", "d"]

    def test_sip_reduces_rows_pulled(self, dataset):
        """The semi-join filter prunes rows before they exist: the
        planned engine streams strictly fewer rows through the probe
        pipeline than its plan without ``sip_eligible`` marks on the
        selective-probe corpus queries."""
        on = Engine(dataset)
        query = get_join_query("sip_egypt_costar")
        on.query(query.sparql, default_graph_uri=DBPEDIA_URI)
        _, off = run_variant(on, query.sparql, DBPEDIA_URI, sip=False)
        assert on.last_stats.rows_pulled < off.rows_pulled

    def test_optional_prunes_with_the_preserved_sides_keys(self, dataset,
                                                           engines):
        """An unbounded OPTIONAL holds its selective preserved side and
        exports its keys into the optional side's leaves; under a LIMIT
        the preserved side stays pipelined instead (nothing is held, so
        nothing is exported)."""
        query = PFX + """
            SELECT ?a ?film ?studio WHERE {
                ?a dbpp:birthPlace dbpr:Egypt
                OPTIONAL { ?film dbpp:starring ?a . ?film dbpp:studio ?studio }
            }"""
        engine = Engine(dataset)
        result = engine.query(query, default_graph_uri=DBPEDIA_URI)
        pruned = engine.last_stats
        assert pruned.sip_filtered_rows > 0
        assert row_bag(result) == row_bag(engines["reference"].query(
            query, default_graph_uri=DBPEDIA_URI))
        unpruned = engines["sip=False/strategy=False"]
        unpruned.query(query, default_graph_uri=DBPEDIA_URI)
        assert pruned.pattern_matches < unpruned.last_stats.pattern_matches
        engine.query(query + " LIMIT 1", default_graph_uri=DBPEDIA_URI)
        assert engine.last_stats.sip_filtered_rows == 0
        assert engine.last_stats.early_exits == 1

    def test_planner_annotates_the_corpus(self, dataset):
        """CostBasedJoinStrategy marks what the corpus expects: sip queries
        get an eligible join, multiway queries an intersect-strategy BGP,
        cyclic queries a wcoj-strategy BGP with an elimination order."""
        from repro.sparql import algebra as alg
        engine = Engine(dataset)

        def walk(node):
            yield node
            for child in node.children():
                yield from walk(child)

        for query in JOIN_QUERIES:
            plan = engine.plan(query.sparql, DBPEDIA_URI)
            nodes = list(walk(plan.query.pattern))
            if query.expect == "sip":
                assert any(getattr(n, "sip_eligible", False)
                           for n in nodes), query.key
            if query.expect == "multiway":
                assert any(getattr(n, "strategy", None) == "intersect"
                           for n in nodes
                           if isinstance(n, alg.BGP)), query.key
            if query.expect == "wcoj":
                tagged = [n for n in nodes if isinstance(n, alg.BGP)
                          and getattr(n, "strategy", None) == "wcoj"]
                assert tagged, query.key
                for n in tagged:
                    order = n.eliminate
                    assert len(order) == len(
                        {v.name for t in n.triples for v in t
                         if hasattr(v, "name")}), query.key


class TestSipSoundnessEdges:
    """Queries built to trip every suspension rule if it were missing."""

    CASES = {
        # OPTIONAL whose right side shares the join variable: pruning
        # inside the optional would turn extensions into null padding.
        "optional_padding": """
            SELECT ?a ?film ?date WHERE {
                { SELECT DISTINCT ?a WHERE {
                      ?a dbpp:birthPlace dbpr:Egypt .
                  } }
                ?film dbpp:starring ?a .
                OPTIONAL { ?a dbpo:birthDate ?date }
            }""",
        # MINUS: right rows outside the key set can exclude nothing, but
        # rows inside it must all be seen.
        "minus_birthplace": """
            SELECT ?a ?film WHERE {
                { SELECT DISTINCT ?a WHERE {
                      ?a dbpp:birthPlace dbpr:Egypt .
                  } }
                ?film dbpp:starring ?a .
                MINUS { ?film dbpp:country dbpr:India }
            }""",
        # NOT EXISTS must not export inner->outer.
        "not_exists": """
            SELECT ?a ?film WHERE {
                { SELECT DISTINCT ?a WHERE {
                      ?a dbpp:birthPlace dbpr:Egypt .
                  } }
                ?film dbpp:starring ?a .
                FILTER NOT EXISTS { ?film dbpp:country dbpr:India }
            }""",
        "exists": """
            SELECT ?a ?film WHERE {
                { SELECT DISTINCT ?a WHERE {
                      ?a dbpp:birthPlace dbpr:Egypt .
                  } }
                ?film dbpp:starring ?a .
                FILTER EXISTS { ?film dbpp:country dbpr:United_States }
            }""",
        # A subquery LIMIT window on the probe side: leaf pruning below
        # the window would change *which* rows it selects.
        "subquery_limit": """
            SELECT ?a ?film WHERE {
                { SELECT DISTINCT ?a WHERE {
                      ?a dbpp:birthPlace dbpr:Egypt .
                  } }
                { SELECT ?film ?a WHERE {
                      ?film dbpp:starring ?a .
                  } ORDER BY ?film ?a LIMIT 40 }
            }""",
        # The probe aggregates over the shared variable: group keys may
        # be pruned, group *contents* must not be.
        "aggregate_probe": """
            SELECT ?a ?n WHERE {
                { SELECT DISTINCT ?a WHERE {
                      ?a dbpp:birthPlace dbpr:Egypt .
                  } }
                { SELECT ?a (COUNT(?film) AS ?n) WHERE {
                      ?film dbpp:starring ?a .
                  } GROUP BY ?a }
            }""",
        # A subquery's unprojected ?v is not the outer ?v, so the BIND
        # above it may take the name; the outer ?v's keys must not prune
        # the subquery's own ?v.  Both join orders.
        "subquery_hidden_var_bind": """
            SELECT ?x ?v ?s WHERE {
                ?x dbpp:starring ?v .
                { { SELECT ?s WHERE { ?s dbpp:birthPlace ?v } }
                  BIND(?s AS ?v) }
            }""",
        "subquery_hidden_var_bind_built_first": """
            SELECT ?x ?v ?s WHERE {
                { { SELECT ?s WHERE { ?s dbpp:birthPlace ?v } }
                  BIND(?s AS ?v) }
                ?x dbpp:starring ?v .
            }""",
        # The same hidden ?v in one UNION branch: the other branch binds
        # ?v, so the union has it in scope and receives the filter.  The
        # branches differ, so neither BGP is a shared subexpression.
        "subquery_hidden_var_union": """
            SELECT ?x ?v ?s WHERE {
                ?x dbpp:starring ?v .
                ?v dbpp:birthPlace dbpr:Egypt .
                { { SELECT ?s WHERE { ?s dbpp:birthPlace ?v .
                                      FILTER(?v = dbpr:Egypt) } } }
                UNION { ?v dbpp:birthPlace ?s }
            }""",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sip_changes_nothing(self, engines, case):
        query = PFX + self.CASES[case]
        want = row_bag(engines["reference"].query(
            query, default_graph_uri=DBPEDIA_URI))
        for key, engine in engines.items():
            if key == "reference":
                continue
            got = row_bag(engine.query(query,
                                       default_graph_uri=DBPEDIA_URI))
            assert got == want, "%s disagrees on %s" % (key, case)

    def test_empty_build_side_short_circuits(self, engines):
        query = PFX + """
            SELECT ?a ?film WHERE {
                { SELECT ?a (COUNT(?f) AS ?n) WHERE {
                      ?f dbpp:starring ?a .
                  } GROUP BY ?a HAVING (COUNT(?f) > 100000) }
                ?film dbpp:starring ?a .
            }"""
        for key, engine in engines.items():
            result = engine.query(query, default_graph_uri=DBPEDIA_URI)
            assert len(result) == 0, key


class TestSortedRunLifecycle:
    def test_mutation_invalidates_runs_mid_session(self):
        """A triple added after runs were built must be visible to the
        next multiway evaluation — the runs are invalidated, not stale."""
        graph = Graph("urn:runs")
        actor = DBPR["RunActor"]
        for i in range(12):
            graph.add(DBPR["RunFilm_%d" % i], DBPP.starring, actor)
            graph.add(DBPR["RunFilm_%d" % i], DBPP.country, DBPR.Narnia)
        engine = Engine(graph, plan_cache_size=0)
        query = """
            PREFIX dbpp: <http://dbpedia.org/property/>
            PREFIX dbpr: <http://dbpedia.org/resource/>
            SELECT ?film WHERE {
                ?film dbpp:starring dbpr:RunActor .
                ?film dbpp:country dbpr:Narnia .
            }"""
        first = engine.query(query, default_graph_uri="urn:runs")
        assert len(first) == 12
        assert graph.sorted_runs_built > 0
        graph.add(DBPR.RunFilm_new, DBPP.starring, actor)
        graph.add(DBPR.RunFilm_new, DBPP.country, DBPR.Narnia)
        second = engine.query(query, default_graph_uri="urn:runs")
        assert len(second) == 13

    def test_topk_window_agrees_with_unfused_plan_on_intersect_bgp(self):
        """A tie-heavy ORDER BY window selects its k-subset from the
        BGP's production order, so ``TopK`` over an intersect-strategy
        BGP must run the program the unfused Slice(OrderBy(BGP)) plan
        runs, or it surfaces as a different window."""
        dataset = build_dataset(scale=0.05)
        query = PFX + """
            SELECT ?film ?actor ?country WHERE {
                ?film dbpp:country ?country .
                ?film dbpp:starring ?actor .
                ?actor dbpp:birthPlace ?country .
            } ORDER BY ?country LIMIT 4"""
        engine = Engine(dataset)
        fused = engine.query(query, default_graph_uri=DBPEDIA_URI)
        unfused, _ = run_variant(engine, query, DBPEDIA_URI,
                                 passes=UNPUSHED)
        assert fused.rows == unfused.rows
