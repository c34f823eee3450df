"""Differential + behavioral suite for the join subsystem.

The join corpus (:mod:`repro.workload.joins` — star, cyclic, chain,
self-join, and semi-join shapes) runs on every combination of

* plane: the production operators and the dict-based ``reference``
  evaluator,
* ``sip`` on/off (sideways information passing: join build sides export
  key id-sets into probe-side BGP leaves),
* ``multiway`` on/off (sorted-run intersection BGP steps),

and every combination must return the identical row bag.  The optimized
engine must additionally *prove* its mechanisms through the
``sip_filtered_rows`` / ``intersect_steps`` / ``sorted_runs_built``
counters, and the soundness edges — OPTIONAL padding, MINUS, NOT EXISTS,
subquery LIMIT windows, Extend overwrites, aggregate probes — are pinned
with targeted queries.
"""

import itertools

import pytest

from repro.data import DBPEDIA_URI, build_dataset
from repro.rdf import DBPP, DBPR, Graph, URIRef
from repro.sparql import Engine
from repro.workload import JOIN_QUERIES, get_join_query

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
    """Every knob combination on the production plane + the reference."""
    out = {"reference": Engine(dataset, columnar=False)}
    for sip, multiway in itertools.product((True, False), (True, False)):
        out["sip=%s/multiway=%s" % (sip, multiway)] = Engine(
            dataset, sip=sip, multiway=multiway)
    return out


def row_bag(result):
    order = sorted(range(len(result.variables)),
                   key=lambda i: result.variables[i])
    return sorted(tuple(repr(row[i]) for i in order) for row in result.rows)


@pytest.fixture(params=[q.key for q in JOIN_QUERIES])
def join_query(request):
    return get_join_query(request.param)


class TestJoinCorpusDifferential:
    def test_all_planes_and_knobs_agree(self, engines, join_query):
        want = row_bag(engines["reference"].query(
            join_query.sparql, default_graph_uri=DBPEDIA_URI))
        assert want, "corpus query %s returns no rows at test scale" \
            % join_query.key
        for key, engine in engines.items():
            if key == "reference":
                continue
            got = row_bag(engine.query(join_query.sparql,
                                       default_graph_uri=DBPEDIA_URI))
            assert got == want, "%s disagrees on %s" % (key, join_query.key)

    def test_same_flags_same_rows_across_batch_kinds(self, dataset,
                                                     join_query):
        """With identical knobs, row-tuple and columnar batches must
        return literally identical rows (the compiled steps are shared
        and a ColumnBatch keeps its rows' order)."""
        for sip, multiway in itertools.product((True, False), repeat=2):
            a, b = (Engine(dataset, sip=sip, multiway=multiway,
                           vectorize=vectorize).query(
                        join_query.sparql, default_graph_uri=DBPEDIA_URI)
                    for vectorize in (False, True))
            assert a.rows == b.rows


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
        engine = engines["sip=True/multiway=True"]
        query = get_join_query("sip_egypt_costar")
        engine.query(query.sparql, default_graph_uri=DBPEDIA_URI)
        assert engine.last_stats.sip_filtered_rows > 0

    def test_knobs_off_means_counters_zero(self, engines, join_query):
        engine = engines["sip=False/multiway=False"]
        engine.query(join_query.sparql, default_graph_uri=DBPEDIA_URI)
        stats = engine.last_stats
        assert stats.sip_filtered_rows == 0
        assert stats.intersect_steps == 0
        assert stats.sorted_runs_built == 0

    def test_sip_reduces_rows_pulled(self, dataset):
        """The semi-join filter prunes rows before they exist: the
        optimized engine streams strictly fewer rows through the probe
        pipeline than the baseline on the selective-probe corpus
        queries."""
        on = Engine(dataset, sip=True)
        off = Engine(dataset, sip=False)
        query = get_join_query("sip_egypt_costar")
        on.query(query.sparql, default_graph_uri=DBPEDIA_URI)
        off.query(query.sparql, default_graph_uri=DBPEDIA_URI)
        assert on.last_stats.rows_pulled < off.last_stats.rows_pulled

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
        unpruned = engines["sip=False/multiway=False"]
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
        engine = Engine(graph, multiway=True, plan_cache_size=0)
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
        """Regression: the TopK-over-BGP fusion must compile with the
        BGP's planner-chosen strategy — a tie-heavy ORDER BY window
        selects its k-subset from the BGP's production order, so a
        strategy mismatch with the unfused Slice(OrderBy(BGP)) plan
        surfaces as a different window."""
        dataset = build_dataset(scale=0.05)
        query = PFX + """
            SELECT ?film ?actor ?country WHERE {
                ?film dbpp:country ?country .
                ?film dbpp:starring ?actor .
                ?actor dbpp:birthPlace ?country .
            } ORDER BY ?country LIMIT 4"""
        fused = Engine(dataset).query(
            query, default_graph_uri=DBPEDIA_URI)
        unfused = Engine(dataset, limit_pushdown=False).query(
            query, default_graph_uri=DBPEDIA_URI)
        assert fused.rows == unfused.rows

    def test_forced_multiway_matches_reference_on_micro_graph(self):
        """multiway=True forces intersection even where the planner would
        decline; results must still match the reference plane."""
        graph = Graph("urn:micro")
        for i in range(6):
            graph.add(URIRef("urn:f%d" % i), DBPP.starring,
                      URIRef("urn:a%d" % (i % 3)))
            graph.add(URIRef("urn:f%d" % i), DBPP.country,
                      URIRef("urn:c%d" % (i % 2)))
        query = """
            PREFIX dbpp: <http://dbpedia.org/property/>
            SELECT ?f ?a ?c WHERE {
                ?f dbpp:starring ?a .
                ?f dbpp:country ?c .
            }"""
        forced = Engine(graph, multiway=True)
        reference = Engine(graph, columnar=False)
        assert row_bag(forced.query(query, default_graph_uri="urn:micro")) \
            == row_bag(reference.query(query, default_graph_uri="urn:micro"))
