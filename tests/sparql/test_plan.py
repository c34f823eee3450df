"""Unit tests for the logical-plan layer: optimizer passes, pass stats,
plan keys, the engine's plan cache, and the text memo in front of it."""

import random

import pytest

import repro.sparql.engine as engine_module
from queryfuzz import generate, mutate
from repro.data import DBPEDIA_URI
from repro.data.loader import build_dataset
from repro.rdf import Dataset, Graph, Literal, TermDictionary, URIRef, Variable
from repro.sparql import Endpoint, Engine, ResultCache, parse, plan_key
from repro.sparql import algebra as alg
from repro.sparql.expressions import AndExpr, CompareExpr, ConstExpr, VarExpr
from repro.sparql.parser import ParseError
from repro.sparql.plan import (DEFAULT_PASSES, _node_key, bgp_merge,
                               filter_pushdown, key_from_skeleton,
                               make_join_ordering, optimize_plan,
                               plan_skeleton, projection_pruning)
from repro.sparql.server import QueryServer
from repro.workload import get_join_query

from plan_variants import UNPUSHED, plan_variant, run_variant

PFX = "PREFIX x: <http://x/>\n"


def uri(name):
    return URIRef("http://x/" + name)


def var(name):
    return Variable(name)


def bgp(*triples):
    return alg.BGP(list(triples))


def gt(expression_var, value):
    return CompareExpr(">", VarExpr(expression_var),
                       ConstExpr(Literal(value)))


@pytest.fixture
def graph():
    d = TermDictionary()
    g = Graph("http://g", dictionary=d)
    for i in range(20):
        g.add(uri("m%d" % i), uri("starring"), uri("a%d" % (i % 4)))
        g.add(uri("m%d" % i), uri("year"), Literal(1990 + i))
    g.add(uri("m0"), uri("rare"), uri("thing"))
    return g


# ----------------------------------------------------------------------
# FilterPushdown
# ----------------------------------------------------------------------
class TestFilterPushdown:
    def test_pushes_into_join_side(self):
        left = bgp((var("m"), uri("year"), var("y")))
        right = bgp((var("m"), uri("starring"), var("a")))
        node = alg.Filter(gt("y", 2000), alg.Join(left, right))
        rewritten, changes = filter_pushdown(node)
        assert changes == 1
        assert isinstance(rewritten, alg.Join)
        assert isinstance(rewritten.left, alg.Filter)
        assert isinstance(rewritten.left.pattern, alg.BGP)
        assert isinstance(rewritten.right, alg.BGP)

    def test_splits_conjunction_across_sides(self):
        left = bgp((var("m"), uri("year"), var("y")))
        right = bgp((var("a"), uri("born"), var("c")))
        both = AndExpr(gt("y", 2000), gt("c", 1))
        node = alg.Filter(both, alg.Join(left, right))
        rewritten, changes = filter_pushdown(node)
        assert changes == 1
        assert isinstance(rewritten, alg.Join)
        assert isinstance(rewritten.left, alg.Filter)
        assert isinstance(rewritten.right, alg.Filter)

    def test_shared_variable_filter_stays(self):
        # ?m is in scope on both sides: the filter must not move.
        left = bgp((var("m"), uri("year"), var("y")))
        right = bgp((var("m"), uri("starring"), var("a")))
        node = alg.Filter(gt("m", 0), alg.Join(left, right))
        rewritten, changes = filter_pushdown(node)
        assert changes == 0
        assert isinstance(rewritten, alg.Filter)

    def test_left_join_pushes_left_only(self):
        left = bgp((var("m"), uri("year"), var("y")))
        right = bgp((var("m"), uri("starring"), var("a")))
        node = alg.Filter(gt("a", 0), alg.LeftJoin(left, right))
        rewritten, changes = filter_pushdown(node)
        # ?a lives on the optional side: pushing would change which left
        # rows survive, so the filter stays put.
        assert changes == 0
        assert isinstance(rewritten, alg.Filter)

        node = alg.Filter(gt("y", 2000), alg.LeftJoin(left, right))
        rewritten, changes = filter_pushdown(node)
        assert changes == 1
        assert isinstance(rewritten, alg.LeftJoin)
        assert isinstance(rewritten.left, alg.Filter)

    def test_distributes_into_union(self):
        left = bgp((var("m"), uri("year"), var("y")))
        right = bgp((var("m"), uri("age"), var("y")))
        node = alg.Filter(gt("y", 2000), alg.Union(left, right))
        rewritten, changes = filter_pushdown(node)
        assert changes == 1
        assert isinstance(rewritten, alg.Union)
        assert isinstance(rewritten.left, alg.Filter)
        assert isinstance(rewritten.right, alg.Filter)


# ----------------------------------------------------------------------
# ProjectionPruning
# ----------------------------------------------------------------------
class TestProjectionPruning:
    def test_collapses_adjacent_projections(self):
        inner = alg.Project(bgp((var("m"), uri("starring"), var("a"))),
                            ["m", "a"])
        node = alg.Project(inner, ["m"])
        rewritten, changes = projection_pruning(node)
        assert changes >= 1
        assert isinstance(rewritten, alg.Project)
        assert rewritten.variables == ["m"]
        assert isinstance(rewritten.pattern, alg.BGP)

    def test_removes_noop_projection_below_root(self):
        pattern = bgp((var("m"), uri("starring"), var("a")))
        noop = alg.Project(pattern, ["m", "a"])  # scope is exactly [m, a]
        root = alg.Project(alg.Join(noop, bgp((var("m"), uri("year"),
                                               var("y")))), ["m"])
        rewritten, changes = projection_pruning(root)
        assert changes == 1
        assert isinstance(rewritten.pattern, alg.Join)
        assert isinstance(rewritten.pattern.left, alg.BGP)

    def test_root_projection_protected(self):
        pattern = bgp((var("m"), uri("starring"), var("a")))
        root = alg.Project(pattern, ["m", "a"])  # a no-op, but the root
        rewritten, changes = projection_pruning(root)
        assert changes == 0
        assert isinstance(rewritten, alg.Project)

    def test_select_star_never_touched(self):
        # SELECT * subqueries carry the naive baseline's deliberate
        # materialization cost; the pruner must leave them alone.
        inner = alg.Project(bgp((var("m"), uri("starring"), var("a"))), None)
        root = alg.Project(alg.Join(inner, bgp((var("m"), uri("year"),
                                                var("y")))), None)
        rewritten, changes = projection_pruning(root)
        assert changes == 0
        assert isinstance(rewritten.pattern.left, alg.Project)

    def test_distinct_distinct_collapses(self):
        node = alg.Distinct(alg.Distinct(
            alg.Project(bgp((var("m"), uri("year"), var("y"))), ["m"])))
        rewritten, changes = projection_pruning(node)
        assert changes == 1
        assert isinstance(rewritten, alg.Distinct)
        assert isinstance(rewritten.pattern, alg.Project)


# ----------------------------------------------------------------------
# BGPMerge
# ----------------------------------------------------------------------
class TestBGPMerge:
    def test_merges_joined_bgps(self):
        t1 = (var("m"), uri("starring"), var("a"))
        t2 = (var("m"), uri("year"), var("y"))
        node = alg.Join(bgp(t1), bgp(t2))
        rewritten, changes = bgp_merge(node)
        assert changes == 1
        assert isinstance(rewritten, alg.BGP)
        assert rewritten.triples == [t1, t2]

    def test_merge_is_recursive(self):
        t = (var("m"), uri("year"), var("y"))
        node = alg.Join(alg.Join(bgp(t), bgp(t)), bgp(t))
        rewritten, changes = bgp_merge(node)
        assert changes == 2
        assert isinstance(rewritten, alg.BGP)
        assert len(rewritten.triples) == 3

    def test_does_not_merge_across_graph_scope(self):
        t = (var("m"), uri("year"), var("y"))
        node = alg.Join(bgp(t), alg.GraphPattern("http://g2", bgp(t)))
        rewritten, changes = bgp_merge(node)
        assert changes == 0
        assert isinstance(rewritten, alg.Join)


# ----------------------------------------------------------------------
# JoinOrdering (plan-time)
# ----------------------------------------------------------------------
class TestJoinOrdering:
    def test_orders_by_selectivity(self, graph):
        # 'rare' has one triple; 'starring' has twenty.  The rare pattern
        # must be matched first.
        common = (var("m"), uri("starring"), var("a"))
        rare = (var("m"), uri("rare"), var("t"))
        node = bgp(common, rare)
        ordering = make_join_ordering(graph)
        rewritten, changes = ordering(node)
        assert changes == 1
        assert rewritten.triples[0] == rare

    def test_recurses_into_graph_scope(self, graph):
        dataset = Dataset()
        dataset.add_graph(graph)
        common = (var("m"), uri("starring"), var("a"))
        rare = (var("m"), uri("rare"), var("t"))
        node = alg.GraphPattern("http://g", bgp(common, rare))
        ordering = make_join_ordering(None, dataset)
        rewritten, changes = ordering(node)
        assert changes == 1
        assert rewritten.pattern.triples[0] == rare

    def test_input_tree_not_mutated(self, graph):
        common = (var("m"), uri("starring"), var("a"))
        rare = (var("m"), uri("rare"), var("t"))
        node = bgp(common, rare)
        make_join_ordering(graph)(node)
        assert node.triples == [common, rare]


# ----------------------------------------------------------------------
# The pipeline + plan objects
# ----------------------------------------------------------------------
class TestOptimizePlan:
    def test_records_per_pass_stats(self, graph):
        query = parse(PFX + """
            SELECT ?m WHERE {
                ?m x:starring ?a . ?m x:rare ?t .
                FILTER(?y > 2000)
                { SELECT ?m ?y WHERE { ?m x:year ?y } }
            }""")
        plan = optimize_plan(query, graph=graph)
        names = [s.name for s in plan.pass_stats]
        assert names == ["FilterPushdown", "ProjectionPruning", "BGPMerge",
                         "AggregatePushdown", "LimitPushdown", "JoinOrdering",
                         "CostBasedJoinStrategy"]
        assert plan.total_changes >= 3  # push + prune + merge + order
        assert all(s.seconds >= 0 for s in plan.pass_stats)

    def test_passes_feed_each_other(self, graph):
        # Pruning the no-op projection exposes Join(BGP, BGP) to BGPMerge,
        # whose output JoinOrdering then reorders — one flat ordered BGP.
        query = parse(PFX + """
            SELECT ?m WHERE {
                ?m x:starring ?a .
                { SELECT ?m ?y WHERE { ?m x:year ?y } }
            }""")
        plan = optimize_plan(query, graph=graph)
        node = plan.query.pattern
        assert isinstance(node, alg.Project)
        assert isinstance(node.pattern, alg.BGP)
        assert len(node.pattern.triples) == 2

    def test_explain_mentions_passes(self, graph):
        plan = optimize_plan(parse(PFX + "SELECT ?m WHERE { ?m x:year ?y }"),
                             graph=graph)
        text = plan.explain()
        assert "FilterPushdown" in text and "JoinOrdering" in text

    def test_explain_header_names_the_from_graphs(self, graph):
        text = PFX + "SELECT ?m FROM <http://g> WHERE { ?m x:year ?y }"
        plan = optimize_plan(parse(text), graph=graph)
        assert plan.explain().splitlines()[0] == "FROM ['http://g']"

    def test_explain_marks_a_star_group(self):
        """``coauthor_pairs``: the Group is counted as a star around
        ``?paper``, so its BGP gets no step program; a FILTER inside
        makes the same shape ineligible, and the BGP keeps its program."""
        from repro.core import InnerJoin, KnowledgeGraph
        from repro.data import DBLP_URI

        engine = Engine(build_dataset(scale=0.02))
        graph = KnowledgeGraph(graph_uri=DBLP_URI)
        left = graph.feature_domain_range("dc:creator", "paper", "author1")
        right = graph.feature_domain_range("dc:creator", "paper", "author2")
        pairs = left.join(right, "paper", InnerJoin) \
            .group_by(["author1", "author2"]).count("paper", "n_joint")
        lines = explained_tree(engine.plan(pairs.to_sparql()))[0]
        assert lines[2:] == [
            "  Group(by=['author1', 'author2'], aggs=[Aggregate((COUNT(?paper)"
            " AS ?n_joint))]) [count=star ?paper]",
            "    BGP(2 triples)"]
        authored = graph.entities("swrc:InProceedings", "paper") \
            .expand("paper", [("dc:creator", "author"),
                              ("swrc:series", "venue")]) \
            .filter({"venue": ["In(dblprc:vldb, dblprc:sigmod)"]}) \
            .group_by(["author"]).count("paper", "n_papers")
        lines = explained_tree(engine.plan(authored.to_sparql()))[0]
        assert lines[2] == ("  Group(by=['author'], aggs=[Aggregate("
                            "(COUNT(?paper) AS ?n_papers))])")
        assert any(line.strip().startswith("match ") for line in lines)

    def test_unordered_plan_skips_join_ordering(self, graph):
        # Without graph statistics neither JoinOrdering nor the
        # CostBasedJoinStrategy annotation pass runs.
        plan = optimize_plan(parse(
            PFX + "SELECT ?m WHERE { ?m x:starring ?a . ?m x:rare ?t }"))
        assert [s.name for s in plan.pass_stats] == [
            name for name, _ in DEFAULT_PASSES]
        # The un-reordered pattern keeps its textual order.
        node = plan.query.pattern.pattern
        assert node.triples[0][1] == uri("starring")


# ----------------------------------------------------------------------
# Plan keys + the engine's plan cache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_key_normalizes_surface_text(self):
        a = parse(PFX + "SELECT ?m WHERE { ?m x:year ?y }")
        b = parse("PREFIX p: <http://x/>\nSELECT  ?m\nWHERE{?m p:year ?y.}")
        assert plan_key(a) == plan_key(b)

    def test_key_distinguishes_structure(self):
        a = parse(PFX + "SELECT ?m WHERE { ?m x:year ?y }")
        b = parse(PFX + "SELECT DISTINCT ?m WHERE { ?m x:year ?y }")
        assert plan_key(a) != plan_key(b)

    def test_cache_hit_on_repeat(self, graph):
        engine = Engine(graph)
        q = PFX + "SELECT ?m WHERE { ?m x:starring ?a . ?m x:rare ?t }"
        first = engine.query(q)
        assert engine.plan_cache_misses == 1
        second = engine.query(q)
        assert engine.plan_cache_hits == 1
        assert engine.last_plan.executions == 2
        assert sorted(map(repr, first.rows)) == sorted(map(repr, second.rows))

    def test_cache_invalidated_by_mutation(self, graph):
        engine = Engine(graph)
        q = PFX + "SELECT ?m WHERE { ?m x:starring ?a }"
        engine.query(q)
        graph.add(uri("m99"), uri("starring"), uri("a0"))
        result = engine.query(q)
        assert engine.plan_cache_hits == 0
        assert engine.plan_cache_misses == 2
        assert len(result) == 21

    def test_cache_respects_size_limit(self, graph):
        engine = Engine(graph, plan_cache_size=2)
        for i in range(4):
            engine.query(PFX + "SELECT ?m WHERE { ?m x:year %d }" % i)
        assert len(engine._plan_cache) == 2

    def test_cache_disabled(self, graph):
        engine = Engine(graph, plan_cache_size=0)
        q = PFX + "SELECT ?m WHERE { ?m x:year ?y }"
        engine.query(q)
        engine.query(q)
        assert engine.plan_cache_hits == 0

    def test_engine_explain_optimized(self, graph):
        engine = Engine(graph)
        text = engine.explain(
            PFX + "SELECT ?m WHERE { ?m x:starring ?a . ?m x:rare ?t }",
            optimized=True)
        assert "JoinOrdering" in text


# ----------------------------------------------------------------------
# The text memo (text -> parsed query + key skeleton)
# ----------------------------------------------------------------------
N_FUZZ_SEEDS = 220


def named_bag(result):
    return sorted(
        tuple(sorted((v, repr(t)) for v, t in zip(result.variables, row)))
        for row in result.rows)


def tree_shape(query):
    """Every node's repr and attribute names: an annotation left on the
    tree by a planner pass shows up as an extra attribute."""
    shape = []

    def walk(node):
        shape.append((repr(node), sorted(vars(node))))
        for child in node.children():
            walk(child)

    walk(query.pattern)
    return shape


def explained_tree(plan):
    """``explain()`` minus the pass timings."""
    return ([line for line in plan.explain().splitlines()
             if not line.startswith("--")],
            [(s.name, s.changes) for s in plan.pass_stats])


@pytest.fixture
def count_parses(monkeypatch):
    calls = []

    def counting_parse(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(engine_module, "parse", counting_parse)
    return calls


class TestPlanKeySplit:
    def test_key_is_byte_identical_to_the_unsplit_formula(self):
        fingerprints = [(), (("http://g", 12, 40),),
                        (("http://a", 1, 1), ("http://b", 2, 9))]
        for seed in range(N_FUZZ_SEEDS):
            query = parse(generate(seed).render())
            for default_graph in (None, DBPEDIA_URI):
                for fingerprint in fingerprints:
                    unsplit = "|".join([
                        repr(tuple(query.from_graphs)), repr(default_graph),
                        repr(fingerprint), _node_key(query.pattern)])
                    assert plan_key(query, default_graph,
                                    fingerprint) == unsplit
                    assert key_from_skeleton(
                        plan_skeleton(query), default_graph,
                        fingerprint) == unsplit

    def test_skeleton_ignores_graph_state(self, graph):
        engine = Engine(graph)
        q = PFX + "SELECT ?m WHERE { ?m x:year ?y }"
        engine.plan(q)
        skeleton = engine._text_memo[q][2]
        graph.add(uri("m99"), uri("year"), Literal(2020))
        assert plan_skeleton(parse(q)) == skeleton


class TestTextMemo:
    def test_memoised_parse_plans_like_a_fresh_parse(self):
        """Plan, execute, mutate the graph, then plan again from the
        memoised AST: same key, same tree, same rows as an engine that
        parses from scratch — and the AST itself never changes."""
        dataset = build_dataset(scale=0.03, include_yago=False,
                                use_cache=False)
        memoised = Engine(dataset, plan_cache_size=N_FUZZ_SEEDS)
        fresh = Engine(dataset, plan_cache_size=0)
        texts = [generate(seed).render() for seed in range(N_FUZZ_SEEDS)]
        for text in texts:
            memoised.query(text)
        rng = random.Random(7)
        for tag in range(6):
            mutate(dataset.graph(DBPEDIA_URI), rng, tag)
        for seed, text in enumerate(texts):
            ast = memoised._text_memo[text][0]
            plan = memoised.plan(text)
            assert plan.query is not ast
            reference = fresh.plan(text)
            assert plan.key == reference.key, "seed %d" % seed
            assert explained_tree(plan) == explained_tree(reference), \
                "seed %d" % seed
            assert named_bag(memoised.query(text)) \
                == named_bag(fresh.query(text)), "seed %d" % seed
            pristine = parse(text)
            assert tree_shape(ast) == tree_shape(pristine), "seed %d" % seed
            assert _node_key(ast.pattern) == _node_key(pristine.pattern)

    def test_repeat_text_is_parsed_once(self, graph, count_parses):
        engine = Engine(graph)
        q = PFX + "SELECT ?m WHERE { ?m x:year ?y }"
        for _ in range(3):
            engine.query(q)
            engine.result_key(q)
        graph.add(uri("m99"), uri("year"), Literal(2020))
        engine.query(q)  # re-planned from the memoised parse
        assert count_parses == [q]
        assert engine.plan_cache_misses == 2

    def test_result_key_is_plan_free(self, graph):
        engine = Engine(graph)
        q = PFX + "SELECT ?m WHERE { ?m x:year ?y }"
        key = engine.result_key(q)
        assert (engine.plan_cache_hits, engine.plan_cache_misses) == (0, 0)
        assert not engine._plan_cache
        assert engine.plan(q).key == key
        assert engine.result_key(parse(q)) == key

    def test_syntax_error_raised_every_time_and_never_stored(self, graph):
        engine = Engine(graph)
        for _ in range(3):
            with pytest.raises(ParseError):
                engine.plan("SELECT nope")
            with pytest.raises(ParseError):
                engine.result_key("SELECT nope")
        assert len(engine._text_memo) == 0

    def test_memo_is_bounded(self, graph):
        engine = Engine(graph, plan_cache_size=8)
        for i in range(2000):
            engine.result_key(PFX + "SELECT ?m WHERE { ?m x:year %d }" % i)
            assert len(engine._text_memo) <= 16
        assert len(engine._text_memo) == 16
        # LRU: the most recent texts are the ones kept.
        assert PFX + "SELECT ?m WHERE { ?m x:year 1999 }" \
            in engine._text_memo

    def test_plan_cache_size_zero_disables_the_memo(self, graph,
                                                    count_parses):
        engine = Engine(graph, plan_cache_size=0)
        q = PFX + "SELECT ?m WHERE { ?m x:year ?y }"
        engine.query(q)
        engine.query(q)
        engine.result_key(q)
        assert len(engine._text_memo) == 0
        assert count_parses == [q, q, q]

    @pytest.mark.parametrize("shared_cache", [False, True])
    def test_write_gives_new_key_and_fresh_answer_everywhere(
            self, graph, shared_cache):
        engine = Engine(graph)
        cache = ResultCache() if shared_cache else None
        q = PFX + "SELECT ?m ?y WHERE { ?m x:year ?y }"
        with QueryServer(engine, workers=1, result_cache=cache) as server:
            endpoint = Endpoint(engine, result_cache=cache)

            def row_counts():
                return (len(engine.query(q)), len(server.execute(q)),
                        len(endpoint.request(q).result))

            key = engine.result_key(q)
            assert row_counts() == (20, 20, 20)
            assert row_counts() == (20, 20, 20)  # warm everywhere
            graph.add(uri("m99"), uri("year"), Literal(2020))
            assert engine.result_key(q) != key
            assert row_counts() == (21, 21, 21)
            graph.remove(uri("m0"), uri("year"), Literal(1990))
            graph.add(uri("m0"), uri("year"), Literal(1890))
            assert row_counts() == (21, 21, 21)
            assert Literal(1890) in [
                y for _, y in server.execute(q).rows]
        assert list(engine._text_memo) == [q]  # survived every write


class TestPlanVariants:
    """The test-side helper (:mod:`plan_variants`) runs a private copy of
    a cached plan; the cached plan itself must come out untouched."""

    def test_variants_leave_the_cached_plan_alone(self):
        engine = Engine(build_dataset(scale=0.05))
        variants = [dict(sip=False), dict(sip=True), dict(strategy=False),
                    dict(passes=UNPUSHED), dict(ordered=False)]
        for key in ("sip_egypt_costar", "triangle_collaborators"):
            text = get_join_query(key).sparql
            plan = engine.plan(text, DBPEDIA_URI)
            before = explained_tree(plan)  # annotations
            notes = "\n".join(before[0])
            assert "[sip]" in notes or "strategy=wcoj" in notes
            want = named_bag(engine.execute_plan(plan, DBPEDIA_URI))
            for changes in variants:
                copy = plan_variant(engine, text, DBPEDIA_URI, **changes)
                assert copy is not plan
                assert copy.query.pattern is not plan.query.pattern
                got, _ = run_variant(engine, text, DBPEDIA_URI, **changes)
                assert named_bag(got) == want, changes
                assert engine.plan(text, DBPEDIA_URI) is plan
                assert explained_tree(plan) == before, changes
