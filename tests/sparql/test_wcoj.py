"""Behavioral suite for cost-based planning + generic (worst-case-optimal)
join over cyclic BGPs.

Covers, on top of the corpus differential in ``test_joins_sip.py``:

* bag-identical rows for the cyclic corpus queries across the wcoj
  engine, its plans with the BGP strategy stripped (nested loops, see
  :mod:`plan_variants`), and the dict-based reference evaluator, with
  ``wcoj_steps > 0`` proving the generic-join operator actually ran;
* ``synopsis_builds`` accounting: lazily built once, memoized across
  queries, rebuilt after a mutation;
* :class:`~repro.sparql.optimizer.GraphStatistics` freshness — a
  member mutation inside a :class:`~repro.rdf.dataset.GraphUnion` that
  keeps the total size unchanged must still flip ``fresh()`` (the
  version-counter regression this PR fixes);
* aggregate pushdown through the wcoj decomposition: COUNT over a
  cyclic BGP folds inside the generic join (``accumulator_rows == 0``)
  and still matches the reference evaluator;
* planner determinism: cost estimates and chosen plans identical across
  ``PYTHONHASHSEED`` values (subprocess) and across pattern input-order
  permutations (in-process);
* the safety valves (deadline, row budget, cancel token) fire on wcoj
  plans exactly as they do on binary-join plans.
"""

import itertools
import os
import subprocess
import sys
import textwrap

import pytest

from repro.data import DBPEDIA_URI, build_dataset
from repro.rdf import Graph, GraphUnion, URIRef
from repro.sparql import (CancelToken, Engine, QueryCancelled, QueryTimeout,
                          RowBudgetExceeded, parse)
from repro.sparql.optimizer import (GraphStatistics, estimate_join,
                                    estimate_wcoj, generic_join_order)
from repro.sparql.plan import optimize_plan
from repro.workload import JOIN_QUERIES, get_join_query

from plan_variants import Variant

PFX = """
PREFIX dbpp: <http://dbpedia.org/property/>
PREFIX dbpo: <http://dbpedia.org/ontology/>
"""

CYCLIC_KEYS = [q.key for q in JOIN_QUERIES if q.expect == "wcoj"]


@pytest.fixture(scope="module")
def dataset():
    return build_dataset(scale=0.05)


@pytest.fixture(scope="module")
def engines(dataset):
    wcoj = Engine(dataset)
    return {
        "reference": Engine(dataset, columnar=False),
        "nested_loop": Variant(wcoj, strategy=False),
        "wcoj": wcoj,
    }


def row_bag(result):
    order = sorted(range(len(result.variables)),
                   key=lambda i: result.variables[i])
    return sorted(tuple(repr(row[i]) for i in order) for row in result.rows)


def collaborator_graph(n=120, hubs=16):
    """A small deterministic graph whose degree distribution is heavy
    enough that the cost gate routes cyclic self-joins to generic join:
    a sparse ring of local collaborations plus ``hubs`` members connected
    to everyone.  Built with explicit insertion order (no hashing
    involved), so its synopses are PYTHONHASHSEED-independent."""
    g = Graph("urn:collab")
    collab = URIRef("urn:collab#with")
    people = [URIRef("urn:p%03d" % i) for i in range(n)]
    for i in range(n):
        for j in (1, 2, 3):
            a, b = people[i], people[(i + j) % n]
            g.add(a, collab, b)
            g.add(b, collab, a)
    for h in range(min(hubs, n)):
        for i in range(n):
            if i != h:
                g.add(people[h], collab, people[i])
                g.add(people[i], collab, people[h])
    return g


TRIANGLE = ("SELECT ?a ?b ?c WHERE { ?a <urn:collab#with> ?b . "
            "?b <urn:collab#with> ?c . ?a <urn:collab#with> ?c }")


class TestCyclicCorpusDifferential:
    @pytest.fixture(params=CYCLIC_KEYS)
    def cyclic_query(self, request):
        return get_join_query(request.param)

    def test_all_planes_agree_on_cyclic_shapes(self, engines, cyclic_query):
        want = row_bag(engines["reference"].query(
            cyclic_query.sparql, default_graph_uri=DBPEDIA_URI))
        assert want, "cyclic query %s empty at test scale" % cyclic_query.key
        for key in ("nested_loop", "wcoj"):
            got = row_bag(engines[key].query(
                cyclic_query.sparql, default_graph_uri=DBPEDIA_URI))
            assert got == want, "%s disagrees on %s" % (key, cyclic_query.key)

    def test_wcoj_steps_prove_the_operator_ran(self, engines, cyclic_query):
        engines["wcoj"].query(cyclic_query.sparql,
                              default_graph_uri=DBPEDIA_URI)
        assert engines["wcoj"].last_stats.wcoj_steps > 0
        engines["nested_loop"].query(cyclic_query.sparql,
                                     default_graph_uri=DBPEDIA_URI)
        assert engines["nested_loop"].last_stats.wcoj_steps == 0


class TestSynopsisAccounting:
    def test_lazy_build_then_memoized(self):
        engine = Engine(collaborator_graph())
        engine.query(TRIANGLE)
        assert engine.last_stats.wcoj_steps > 0
        assert engine.last_stats.synopsis_builds > 0
        engine.query(TRIANGLE.replace("?c }", "?c . ?b <urn:collab#with> ?a }"))
        assert engine.last_stats.synopsis_builds == 0

    def test_cursor_reports_planning_builds_exactly_once(self):
        # A plan first executed through Engine.stream() gets the same
        # bookkeeping as execute_plan(): planning-time synopsis builds
        # land on that first execution's stats, and only there.
        engine = Engine(collaborator_graph())
        cursor = engine.stream(TRIANGLE)
        assert engine.last_plan.synopsis_builds > 0
        assert engine.last_stats.synopsis_builds \
            >= engine.last_plan.synopsis_builds
        assert engine.last_elapsed > 0
        cursor.result()
        engine.query(TRIANGLE)
        assert engine.last_plan.executions == 2
        assert engine.last_stats.synopsis_builds == 0

    def test_mutation_rebuilds_synopses(self):
        graph = collaborator_graph()
        engine = Engine(graph)
        engine.query(TRIANGLE)
        graph.add(URIRef("urn:new"), URIRef("urn:collab#with"),
                  URIRef("urn:p000"))
        engine.query(TRIANGLE)
        assert engine.last_stats.synopsis_builds > 0


class TestStatisticsFreshness:
    def test_graph_mutation_flips_fresh(self):
        graph = collaborator_graph(20)
        stats = GraphStatistics(graph)
        assert stats.fresh()
        graph.add(URIRef("urn:x"), URIRef("urn:y"), URIRef("urn:z"))
        assert not stats.fresh()

    def test_union_member_equal_size_replace_detected(self):
        """The regression: a replace inside a union member keeps both the
        member's and the union's ``len()`` unchanged, so the old size
        guard reported stale statistics as fresh."""
        a, b = Graph("urn:a"), Graph("urn:b")
        p = URIRef("urn:p")
        a.add(URIRef("urn:s1"), p, URIRef("urn:o1"))
        b.add(URIRef("urn:s2"), p, URIRef("urn:o2"))
        union = GraphUnion([a, b])
        stats = GraphStatistics(union)
        assert stats.fresh()
        size = len(union)
        b.remove(URIRef("urn:s2"), p, URIRef("urn:o2"))
        b.add(URIRef("urn:s3"), p, URIRef("urn:o3"))
        assert len(union) == size
        assert not stats.fresh()


class TestAggregatePushdown:
    COUNT = PFX + """
    SELECT ?a (COUNT(*) AS ?n) WHERE {
      ?a dbpp:collaborator ?b .
      ?b dbpp:collaborator ?c .
      ?a dbpp:collaborator ?c .
    } GROUP BY ?a
    """

    def test_count_folds_inside_the_decomposition(self, engines):
        want = row_bag(engines["reference"].query(
            self.COUNT, default_graph_uri=DBPEDIA_URI))
        assert want
        got = row_bag(engines["wcoj"].query(
            self.COUNT, default_graph_uri=DBPEDIA_URI))
        assert got == want
        stats = engines["wcoj"].last_stats
        assert stats.wcoj_steps > 0
        # The join's rows were never materialized into the hash
        # aggregation: counting rode the generic-join levels.
        assert stats.accumulator_rows == 0


class TestPlannerDeterminism:
    def patterns(self, text):
        query = parse(text)
        node = query.pattern
        while not hasattr(node, "triples"):
            node = node.children()[0]
        return query, node.triples

    def explain_fingerprint(self, graph, text):
        plan = optimize_plan(parse(text), graph=graph)
        return [line for line in plan.explain().splitlines()
                if not line.startswith("--")]

    def test_estimates_invariant_under_pattern_permutation(self):
        graph = collaborator_graph()
        parts = ["?a <urn:collab#with> ?b", "?b <urn:collab#with> ?c",
                 "?a <urn:collab#with> ?c"]
        seen_nl, seen_wcoj, seen_order = set(), set(), set()
        for perm in itertools.permutations(parts):
            text = "SELECT * WHERE { %s }" % " . ".join(perm)
            _, triples = self.patterns(text)
            stats = GraphStatistics(graph)
            cost_nl, _ = estimate_join(triples, stats)
            order = generic_join_order(triples, stats)
            seen_nl.add(round(cost_nl, 9))
            seen_order.add(tuple(order))
            seen_wcoj.add(round(estimate_wcoj(triples, order, stats), 9))
        assert len(seen_nl) == 1
        assert len(seen_wcoj) == 1
        assert len(seen_order) == 1

    def test_chosen_plan_invariant_under_pattern_permutation(self):
        graph = collaborator_graph()
        parts = ["?a <urn:collab#with> ?b", "?b <urn:collab#with> ?c",
                 "?c <urn:collab#with> ?d", "?d <urn:collab#with> ?a",
                 "?a <urn:collab#with> ?c"]
        fingerprints = {
            tuple(self.explain_fingerprint(
                graph, "SELECT ?a WHERE { %s }" % " . ".join(perm)))
            for perm in itertools.permutations(parts)}
        assert len(fingerprints) == 1
        only = next(iter(fingerprints))
        assert any("strategy=wcoj" in line for line in only)

    def test_plans_and_estimates_invariant_under_hash_seed(self, tmp_path):
        """Same graph, same query, different string-hash seeds: the
        explain output and the raw cost numbers must be bit-identical.
        Run in subprocesses because the seed is fixed at interpreter
        start."""
        script = tmp_path / "probe.py"
        script.write_text(textwrap.dedent("""\
            import sys
            sys.path.insert(0, %r)
            from repro.rdf import Graph, URIRef
            from repro.sparql import parse
            from repro.sparql.optimizer import (GraphStatistics,
                estimate_join, estimate_wcoj, generic_join_order)
            from repro.sparql.plan import optimize_plan

            g = Graph("urn:collab")
            collab = URIRef("urn:collab#with")
            people = [URIRef("urn:p%%03d" %% i) for i in range(120)]
            for i in range(120):
                for j in (1, 2, 3):
                    a, b = people[i], people[(i + j) %% 120]
                    g.add(a, collab, b)
                    g.add(b, collab, a)
            for h in range(16):
                for i in range(120):
                    if i != h:
                        g.add(people[h], collab, people[i])
                        g.add(people[i], collab, people[h])

            queries = [
                "SELECT * WHERE { ?a <urn:collab#with> ?b . "
                "?b <urn:collab#with> ?c . ?a <urn:collab#with> ?c }",
                "SELECT ?a WHERE { ?a <urn:collab#with> ?b . "
                "?b <urn:collab#with> ?c . ?c <urn:collab#with> ?d . "
                "?d <urn:collab#with> ?a . ?a <urn:collab#with> ?c }",
            ]
            for text in queries:
                query = parse(text)
                node = query.pattern
                while not hasattr(node, "triples"):
                    node = node.children()[0]
                stats = GraphStatistics(g)
                cost_nl, rows = estimate_join(node.triples, stats)
                order = generic_join_order(node.triples, stats)
                print("nl=%%.9f rows=%%.9f order=%%s wcoj=%%.9f"
                      %% (cost_nl, rows, order,
                         estimate_wcoj(node.triples, order, stats)))
                plan = optimize_plan(parse(text), graph=g)
                for line in plan.explain().splitlines():
                    if not line.startswith("--"):
                        print(line)
            """ % os.path.join(os.getcwd(), "src")))
        outputs = set()
        for seed in ("0", "1", "42"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run([sys.executable, str(script)],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
        assert len(outputs) == 1, "plans differ across hash seeds"


class TestValvesOnWcojPlans:
    def test_deadline_fires(self, dataset):
        engine = Engine(dataset)
        query = get_join_query("cycle4_collaborators")
        with pytest.raises(QueryTimeout):
            engine.query(query.sparql, default_graph_uri=DBPEDIA_URI,
                         timeout=0.0)

    def test_row_budget_fires(self, dataset):
        engine = Engine(dataset, max_intermediate_rows=5)
        query = get_join_query("cycle4_collaborators")
        with pytest.raises(RowBudgetExceeded):
            engine.query(query.sparql, default_graph_uri=DBPEDIA_URI)

    def test_cancel_token_fires(self, dataset):
        engine = Engine(dataset)
        token = CancelToken()
        token.cancel("client went away")
        query = get_join_query("triangle_collaborators")
        with pytest.raises(QueryCancelled):
            engine.query(query.sparql, default_graph_uri=DBPEDIA_URI,
                         cancel=token)
