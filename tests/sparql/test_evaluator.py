"""Unit tests for SPARQL evaluation semantics (Section 5.2 of the paper)."""

import pytest

from repro.rdf import Dataset, Graph, Literal, URIRef
from repro.sparql import Engine

from plan_variants import Variant


def uri(name):
    return URIRef("http://x/" + name)


@pytest.fixture
def engine():
    g = Graph("http://g")
    g.add(uri("m1"), uri("starring"), uri("a1"))
    g.add(uri("m1"), uri("starring"), uri("a2"))
    g.add(uri("m2"), uri("starring"), uri("a1"))
    g.add(uri("m3"), uri("starring"), uri("a3"))
    g.add(uri("a1"), uri("born"), uri("usa"))
    g.add(uri("a2"), uri("born"), uri("france"))
    g.add(uri("a1"), uri("label"), Literal("Actor One"))
    g.add(uri("m1"), uri("year"), Literal(1999))
    g.add(uri("m2"), uri("year"), Literal(2005))
    g.add(uri("m3"), uri("year"), Literal(2010))
    return Engine(g)


def rows(engine, query, **kwargs):
    return set(engine.query(query, **kwargs).to_dataframe().to_records())


PFX = "PREFIX x: <http://x/>\n"


class TestBGP:
    def test_single_pattern(self, engine):
        result = rows(engine, PFX + "SELECT ?m WHERE { ?m x:starring ?a }")
        assert result == {("http://x/m1",), ("http://x/m1",),
                          ("http://x/m2",), ("http://x/m3",)}

    def test_bag_semantics_duplicates(self, engine):
        df = engine.query(
            PFX + "SELECT ?m WHERE { ?m x:starring ?a }").to_dataframe()
        assert len(df) == 4  # m1 twice

    def test_join_within_bgp(self, engine):
        result = rows(engine, PFX + """
            SELECT ?m ?c WHERE { ?m x:starring ?a . ?a x:born ?c }""")
        assert result == {("http://x/m1", "http://x/usa"),
                          ("http://x/m1", "http://x/france"),
                          ("http://x/m2", "http://x/usa")}

    def test_concrete_subject(self, engine):
        result = rows(engine, PFX + "SELECT ?a WHERE { x:m1 x:starring ?a }")
        assert result == {("http://x/a1",), ("http://x/a2",)}

    def test_repeated_variable_must_agree(self, engine):
        g = Graph("http://g2")
        g.add(uri("n"), uri("p"), uri("n"))
        g.add(uri("n"), uri("p"), uri("other"))
        e = Engine(g)
        result = rows(e, PFX + "SELECT ?x WHERE { ?x x:p ?x }")
        assert result == {("http://x/n",)}

    def test_empty_result(self, engine):
        assert rows(engine, PFX + "SELECT ?m WHERE { ?m x:nope ?a }") == set()

    def test_variable_predicate(self, engine):
        result = rows(engine, PFX + "SELECT ?p WHERE { x:a1 ?p ?o }")
        assert result == {("http://x/born",), ("http://x/label",)}


class TestOptional:
    def test_optional_keeps_unmatched(self, engine):
        df = engine.query(PFX + """
            SELECT ?a ?c WHERE {
                ?m x:starring ?a OPTIONAL { ?a x:born ?c }
            }""").to_dataframe()
        by_actor = {}
        for actor, country in df.to_records():
            by_actor.setdefault(actor, set()).add(country)
        assert by_actor["http://x/a3"] == {None}
        assert by_actor["http://x/a1"] == {"http://x/usa"}

    def test_nested_optional(self, engine):
        df = engine.query(PFX + """
            SELECT * WHERE {
                ?m x:starring ?a
                OPTIONAL { ?a x:born ?c OPTIONAL { ?a x:label ?l } }
            }""").to_dataframe()
        assert len(df) == 4


class TestUnionFilter:
    def test_union_is_bag_concat(self, engine):
        df = engine.query(PFX + """
            SELECT ?m WHERE {
                { ?m x:starring x:a1 } UNION { ?m x:year 2010 }
            }""").to_dataframe()
        assert sorted(df.column("m")) == [
            "http://x/m1", "http://x/m2", "http://x/m3"]

    def test_filter_numeric(self, engine):
        result = rows(engine, PFX + """
            SELECT ?m WHERE { ?m x:year ?y FILTER ( ?y >= 2005 ) }""")
        assert result == {("http://x/m2",), ("http://x/m3",)}

    def test_filter_error_eliminates_row(self, engine):
        # ?c unbound for a3's movie: comparison errors, row dropped.
        result = rows(engine, PFX + """
            SELECT ?m WHERE {
                ?m x:starring ?a OPTIONAL { ?a x:born ?c }
                FILTER ( ?c = x:usa )
            }""")
        assert result == {("http://x/m1",), ("http://x/m2",)}

    def test_filter_bound(self, engine):
        result = rows(engine, PFX + """
            SELECT ?a WHERE {
                ?m x:starring ?a OPTIONAL { ?a x:born ?c }
                FILTER ( ! bound(?c) )
            }""")
        assert result == {("http://x/a3",)}

    # ?c ranges over IRIs, a plain literal and unbound (a3 has no
    # triple); m1 and m2 both star a1, so each a1 row appears twice.
    FILTER_CASES = {
        "?c = x:usa": ["a1 usa"] * 2,
        "x:usa != ?c": ["a1 Actor One"] * 2 + ["a2 france"],
        "?c IN (x:usa, x:france)": ["a1 usa"] * 2 + ["a2 france"],
        "BOUND(?c)": ["a1 Actor One"] * 2 + ["a1 usa"] * 2 + ["a2 france"],
        "!BOUND(?c)": ["a3 None"],
        "?c = x:usa && BOUND(?c)": ["a1 usa"] * 2,
        '?c = "Actor One"': ["a1 Actor One"] * 2,
        "?c < x:usa": [],  # IRIs have no order: an error, no row
        'STR(?c) = "http://x/usa"': ["a1 usa"] * 2,
    }

    @pytest.mark.parametrize("condition, want", list(FILTER_CASES.items()),
                             ids=list(FILTER_CASES))
    def test_filter_condition_matches_reference(self, engine, condition,
                                                want):
        query = PFX + """
            SELECT ?a ?c WHERE {
                ?m x:starring ?a OPTIONAL { ?a ?p ?c } FILTER ( %s )
            }""" % condition

        def bag(result):
            return sorted(" ".join("None" if term is None
                                   else str(term).replace("http://x/", "")
                                   for term in row)
                          for row in result.rows)

        got = bag(engine.query(query))
        assert got == sorted(want)
        assert got == bag(Engine(engine.dataset, columnar=False).query(query))


class TestAggregation:
    def test_group_count(self, engine):
        result = rows(engine, PFX + """
            SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a }
            GROUP BY ?a""")
        assert result == {("http://x/a1", 2), ("http://x/a2", 1),
                          ("http://x/a3", 1)}

    def test_count_distinct(self, engine):
        g = Graph("http://g")
        g.add(uri("m"), uri("p"), uri("a"))
        g.add(uri("m2"), uri("p"), uri("a"))
        g.add(uri("m2"), uri("q"), uri("a"))
        e = Engine(g)
        result = rows(e, PFX + """
            SELECT ?a (COUNT(DISTINCT ?m) AS ?n) WHERE { ?m ?p ?a }
            GROUP BY ?a""")
        assert result == {("http://x/a", 2)}

    def test_having(self, engine):
        result = rows(engine, PFX + """
            SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a }
            GROUP BY ?a HAVING ( COUNT(?m) >= 2 )""")
        assert result == {("http://x/a1", 2)}

    def test_having_on_alias_variable(self, engine):
        result = rows(engine, PFX + """
            SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a }
            GROUP BY ?a HAVING ( ?n >= 2 )""")
        assert result == {("http://x/a1", 2)}

    def test_sum_min_max_avg(self, engine):
        result = rows(engine, PFX + """
            SELECT (SUM(?y) AS ?s) (MIN(?y) AS ?lo) (MAX(?y) AS ?hi)
                   (AVG(?y) AS ?mean)
            WHERE { ?m x:year ?y }""")
        assert result == {(1999 + 2005 + 2010, 1999, 2010,
                           (1999 + 2005 + 2010) / 3)}

    def test_count_star(self, engine):
        result = rows(engine, PFX +
                      "SELECT (COUNT(*) AS ?n) WHERE { ?m x:starring ?a }")
        assert result == {(4,)}

    def test_count_over_empty_is_zero(self, engine):
        result = rows(engine, PFX +
                      "SELECT (COUNT(?m) AS ?n) WHERE { ?m x:nope ?a }")
        assert result == {(0,)}

    def test_group_over_empty_is_empty(self, engine):
        result = rows(engine, PFX + """
            SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:nope ?a }
            GROUP BY ?a""")
        assert result == set()

    def test_sample(self, engine):
        result = rows(engine, PFX + """
            SELECT ?a (SAMPLE(?m) AS ?one) WHERE { ?m x:starring ?a }
            GROUP BY ?a""")
        samples = dict(result)
        assert samples["http://x/a1"] in ("http://x/m1", "http://x/m2")

    def test_non_numeric_aggregate_unbound(self, engine):
        df = engine.query(PFX + """
            SELECT ?a (SUM(?l) AS ?s) WHERE { ?a x:label ?l }
            GROUP BY ?a""").to_dataframe()
        assert df.column("s") == [None]


class TestSubqueries:
    def test_nested_select_joins_with_outer(self, engine):
        result = rows(engine, PFX + """
            SELECT ?m ?n WHERE {
                ?m x:starring ?a
                { SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a }
                  GROUP BY ?a HAVING ( COUNT(?m) >= 2 ) }
            }""")
        assert result == {("http://x/m1", 2), ("http://x/m2", 2)}

    def test_subquery_projection_limits_scope(self, engine):
        # Inner ?m is projected away; outer ?m is free.
        result = rows(engine, PFX + """
            SELECT ?m ?a WHERE {
                ?m x:year 2010
                { SELECT ?a WHERE { ?m x:starring ?a } }
            }""")
        assert ("http://x/m3", "http://x/a1") in result
        assert len(result) == 3

    def test_materialization_stat(self, engine):
        engine.query(PFX + """
            SELECT * WHERE {
                ?m x:starring ?a
                { SELECT ?a WHERE { ?a x:born ?c } }
            }""")
        assert engine.last_stats.materialized_subqueries == 1


class TestModifiers:
    def test_distinct(self, engine):
        df = engine.query(PFX +
                          "SELECT DISTINCT ?m WHERE { ?m x:starring ?a }"
                          ).to_dataframe()
        assert len(df) == 3

    def test_order_by_asc_desc(self, engine):
        df = engine.query(PFX + """
            SELECT ?m ?y WHERE { ?m x:year ?y } ORDER BY DESC(?y)"""
            ).to_dataframe()
        assert df.column("y") == [2010, 2005, 1999]

    def test_limit_offset(self, engine):
        df = engine.query(PFX + """
            SELECT ?m ?y WHERE { ?m x:year ?y }
            ORDER BY ?y LIMIT 1 OFFSET 1""").to_dataframe()
        assert df.column("y") == [2005]

    def test_select_star_column_order(self, engine):
        result = engine.query(PFX + "SELECT * WHERE { ?m x:year ?y }")
        assert result.variables == ["m", "y"]


class TestMultiGraph:
    @pytest.fixture
    def dataset_engine(self):
        ds = Dataset()
        g1 = ds.create_graph("http://g1")
        g1.add(uri("e"), uri("p"), uri("v1"))
        g1.add(uri("shared"), uri("p"), uri("v1"))
        g2 = ds.create_graph("http://g2")
        g2.add(uri("e"), uri("q"), uri("v2"))
        g2.add(uri("shared"), uri("p"), uri("v2"))
        return Engine(ds)

    def test_from_single_graph(self, dataset_engine):
        result = rows(dataset_engine, PFX +
                      "SELECT ?s FROM <http://g1> WHERE { ?s x:p ?v }")
        assert result == {("http://x/e",), ("http://x/shared",)}

    def test_from_two_graphs_unions(self, dataset_engine):
        result = rows(dataset_engine, PFX + """
            SELECT ?s ?v FROM <http://g1> FROM <http://g2>
            WHERE { ?s x:p ?v }""")
        assert len(result) == 3

    def test_graph_scoping(self, dataset_engine):
        result = rows(dataset_engine, PFX + """
            SELECT ?s FROM <http://g1> FROM <http://g2> WHERE {
                GRAPH <http://g1> { ?s x:p ?v1 }
                GRAPH <http://g2> { ?s x:p ?v2 }
            }""")
        assert result == {("http://x/shared",)}

    def test_unknown_graph_raises(self, dataset_engine):
        from repro.sparql import EvaluationError
        with pytest.raises(EvaluationError):
            dataset_engine.query("SELECT * FROM <http://nope> WHERE { ?s ?p ?o }")

    def test_default_graph_uri_parameter(self, dataset_engine):
        result = rows(dataset_engine, PFX + "SELECT ?s WHERE { ?s x:q ?v }",
                      default_graph_uri="http://g2")
        assert result == {("http://x/e",)}


class TestUnionView:
    """A dataset with no default graph answers over a ``GraphUnion``:
    these run the union's fully-bound and sorted-run accessors against
    the reference evaluator."""

    @pytest.fixture
    def dataset(self):
        ds = Dataset()
        g1, g2 = ds.create_graph("http://g1"), ds.create_graph("http://g2")
        for i in range(60):
            g1.add(uri("hub1"), uri("knows"), uri("p%d" % i))
        for i in range(40, 100):
            g2.add(uri("hub2"), uri("knows"), uri("p%d" % i))
        for i in range(100):
            (g1 if i % 2 else g2).add(uri("p%d" % i), uri("likes"),
                                      uri("tea"))
        return ds

    @pytest.fixture
    def calls(self, monkeypatch):
        from repro.rdf import GraphUnion
        counts = {}
        for name in ("contains_ids", "objects_run"):
            real = getattr(GraphUnion, name)

            def counted(self, *args, _real=real, _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _real(self, *args)
            monkeypatch.setattr(GraphUnion, name, counted)
        return counts

    def test_fully_bound_pattern(self, dataset, calls):
        text = PFX + "SELECT * WHERE { x:hub1 x:knows x:p41 }"
        production = Engine(dataset).query(text)
        reference = Engine(dataset, columnar=False).query(text)
        assert len(production) == len(reference) == 1
        assert calls.get("contains_ids", 0) >= 1

    def test_intersection_across_member_graphs(self, dataset, calls):
        text = PFX + """SELECT ?x WHERE {
            x:hub1 x:knows ?x . x:hub2 x:knows ?x . ?x x:likes x:tea }"""
        engine = Engine(dataset)
        assert "intersect ?x" in engine.plan(text).explain()
        production = rows(engine, text)
        assert production == rows(Engine(dataset, columnar=False), text)
        assert production == {("http://x/p%d" % i,) for i in range(40, 60)}
        assert len(engine.query(text)) == 20
        assert calls.get("objects_run", 0) >= 1


class TestEngineBehaviour:
    def test_stats_populated(self, engine):
        engine.query(PFX + "SELECT ?m WHERE { ?m x:starring ?a }")
        assert engine.last_stats.bgp_count == 1
        assert engine.last_stats.pattern_matches == 4

    def test_bgp_cache_hit_on_repeated_pattern(self, engine):
        # Real (column-dropping) projections, so the planner's
        # ProjectionPruning pass keeps both subqueries and the repeated
        # BGP is evaluated through the cache.
        engine.query(PFX + """
            SELECT * WHERE {
                { SELECT ?m WHERE { ?m x:starring ?a } }
                { SELECT ?m WHERE { ?m x:starring ?a } }
            }""")
        assert engine.last_stats.bgp_cache_hits >= 1

    @pytest.mark.parametrize("changes", [{}, {"sip": True},
                                         {"ordered": False}],
                             ids=["planned", "sip", "unordered"])
    @pytest.mark.parametrize("branch, hits", [
        ("{ ?m x:starring ?a }", 1),
        ("{ SELECT ?m WHERE { ?m x:starring ?a } }", 1),
        ("{ ?m x:starring ?a { SELECT ?a WHERE { ?a x:born ?c } } }", 2),
    ], ids=["bare", "subselect", "join"])
    def test_bgp_cache_hit_across_union_branches(self, engine, branch, hits,
                                                 changes):
        # The first branch's stream runs to the end before the second is
        # pulled, so the second replays what the first produced — the
        # hit counts of the engine that materialized every operator.  The
        # replay holds whether every join carries a sideways filter or the
        # patterns run in textual order.
        planned = Variant(engine, **changes)
        result = planned.query(PFX + "SELECT * WHERE { %s UNION %s }"
                               % (branch, branch))
        assert planned.last_stats.bgp_cache_hits == hits
        reference = Engine(engine.dataset, columnar=False).query(
            PFX + "SELECT * WHERE { %s UNION %s }" % (branch, branch))
        def bag(r):
            return sorted(repr(sorted(zip(r.variables, row)))
                          for row in r.rows)

        assert bag(result) == bag(reference)

    def test_repeated_bgp_is_shared_even_under_a_sideways_filter(self,
                                                                 engine):
        # The join exports its build keys into both UNION branches (its
        # probe side is too small for the planner to mark it, so the mark
        # is forced); the repeated BGP is still matched once (unfiltered)
        # and replayed.
        query = PFX + """
            SELECT ?m ?a ?c WHERE {
                ?a x:born ?c
                { { ?m x:starring ?a } UNION { ?m x:starring ?a } }
            }"""
        forced = Variant(engine, sip=True)
        result = forced.query(query)
        assert forced.last_stats.bgp_cache_hits == 1
        assert forced.last_stats.sip_filtered_rows == 0
        reference = Engine(engine.dataset, columnar=False).query(query)
        assert sorted(result.rows, key=repr) \
            == sorted(reference.rows, key=repr)
        assert len(result) == 6

    def test_once_only_bgps_are_not_held(self, engine):
        from repro.sparql import Evaluator, parse
        evaluator = Evaluator(engine.dataset)
        evaluator.evaluate_query_stream(parse(PFX + """
            SELECT * WHERE { ?m x:starring ?a . ?a x:born ?c }
            """)).to_table()
        assert evaluator._bgp_cache == {}

    def test_partially_pulled_bgp_is_never_cached(self, engine):
        from repro.sparql import Evaluator, parse
        evaluator = Evaluator(engine.dataset)
        stream = evaluator.evaluate_query_stream(parse(PFX + """
            SELECT * WHERE {
                { ?m x:starring ?a } UNION { ?m x:starring ?a }
            } LIMIT 1"""))
        assert len(next(stream.batches)) == 1
        stream.batches.close()
        assert evaluator._bgp_cache == {}
        assert evaluator.stats.bgp_cache_hits == 0

    def test_explain_renders_tree(self, engine):
        text = engine.explain(PFX + "SELECT ?m WHERE { ?m x:starring ?a }")
        assert "Project" in text and "BGP" in text

    def test_queries_executed_counter(self, engine):
        before = engine.queries_executed
        engine.query(PFX + "SELECT ?m WHERE { ?m x:year ?y }")
        assert engine.queries_executed == before + 1

    def test_extend_bind(self, engine):
        result = rows(engine, PFX + """
            SELECT ?m ?next WHERE {
                ?m x:year ?y BIND( ?y + 1 AS ?next )
            }""")
        assert ("http://x/m3", 2011) in result


#: Physical switches ``Engine`` / ``Evaluator`` no longer take: the
#: planner decides, and ``Plan.explain()`` shows what it decided.
REMOVED_SWITCHES = ("streaming", "optimize", "cache_bgps", "limit_pushdown",
                    "sip", "multiway", "wcoj", "vectorize")


class TestOnePlane:
    """Ratchet: one production operator set, no physical switch."""

    def test_one_operator_per_node_type(self):
        # The driver dispatches through one table: every algebra node
        # type has exactly one operator, and no operator serves two.
        from repro.sparql import Evaluator, algebra as alg
        from repro.sparql.evaluator import OPERATORS
        node_types = {cls for cls in vars(alg).values()
                      if isinstance(cls, type)
                      and issubclass(cls, alg.AlgebraNode)
                      and cls is not alg.AlgebraNode}
        assert set(OPERATORS) == node_types
        assert len(set(OPERATORS.values())) == len(OPERATORS)
        assert not [name for name in dir(Evaluator)
                    if name.startswith(("_eval_", "_stream_"))]
        # The sideways-filter scope is an argument, not evaluator state.
        assert not hasattr(Evaluator(Dataset()), "_sip")

    def test_engine_signature(self):
        import inspect
        parameters = list(inspect.signature(Engine.__init__).parameters)
        assert parameters == ["self", "source", "max_intermediate_rows",
                              "columnar", "plan_cache_size"]

    @pytest.mark.parametrize("name", REMOVED_SWITCHES)
    def test_removed_switch_is_rejected(self, name):
        with pytest.raises(TypeError):
            Engine(Graph("http://g"), **{name: False})

    def test_evaluator_takes_no_switch(self):
        import inspect
        from repro.sparql import Evaluator
        parameters = set(inspect.signature(Evaluator.__init__).parameters)
        assert not parameters & set(REMOVED_SWITCHES)

    def test_one_batch_layout(self):
        # Operators exchange row-tuple lists only: no columnar batch
        # class, no vector kernels, no plan-wide batch routing.
        import importlib
        import repro.sparql as sparql
        from repro.sparql import Evaluator, Plan, optimize_plan, parse
        assert not hasattr(sparql, "ColumnBatch")
        assert "ColumnBatch" not in sparql.__all__
        with pytest.raises(ImportError):
            importlib.import_module("repro.sparql.vector")
        plan = optimize_plan(parse("SELECT ?s WHERE { ?s ?p ?o } LIMIT 1"))
        assert isinstance(plan, Plan)
        assert not hasattr(plan, "batch_kind")
        assert "batch_kind" not in plan.explain()
        assert not hasattr(Evaluator(Dataset()), "column_batches")

    def test_one_bgp_program_builder(self):
        # The planner writes each BGP's steps (optimizer.bgp_program);
        # the evaluator instantiates them and decides nothing itself.
        from repro.sparql import Evaluator, evaluator, optimizer, plan
        for name in ("_intersection_plan", "_wcoj_steps", "_bgp_intersect",
                     "_wcoj_order"):
            assert not hasattr(Evaluator, name), name
        for name in ("intersection_worthwhile", "run_width"):
            assert not hasattr(evaluator, name), name
        for name in ("_bgp_wants_intersection", "_wcoj_sized"):
            assert not hasattr(plan, name), name
        assert not hasattr(optimizer, "WCOJ_MIN_TRIPLES")

    def test_one_bgp_driver_one_topk_one_extend(self):
        # Every BGP runs through bgp.match_bgp's chunked expander, TopK is a
        # heap over its child's stream, and Extend never overwrites.
        from repro.sparql import Evaluator
        for name in ("_stream_topk_bgp", "_sip_without"):
            assert not hasattr(Evaluator, name), name

    def test_sparql_package_does_not_import_core(self):
        # SPARQL text is the only contract between RDFFrames and the
        # engine: no module of the engine imports repro.core.
        import ast
        import pathlib
        import repro.sparql as sparql
        offenders = []
        for path in pathlib.Path(sparql.__file__).parent.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [("." * node.level) + (node.module or "")]
                else:
                    continue
                offenders += [(path.name, name) for name in names
                              if name.startswith(("repro.core", "..core",
                                                  "...core"))]
        assert not offenders

    @pytest.mark.parametrize("columnar", [True, False])
    @pytest.mark.parametrize("method", ["plan", "stream", "result_key"])
    def test_query_model_is_not_a_query(self, engine, method, columnar):
        from repro.core import QueryModel
        model = QueryModel()
        model.add_triple("?m", "<http://x/starring>", "?a")
        target = Engine(engine.dataset, columnar=columnar)
        with pytest.raises(TypeError, match="translate"):
            getattr(target, method)(model)

    def test_reference_engine_refuses_plans(self, engine):
        # A reference engine answers from the dict evaluator; executing a
        # plan would silently run the production operators instead.
        text = PFX + "SELECT ?m WHERE { ?m x:starring ?a } LIMIT 2"
        reference = Engine(engine.dataset, columnar=False)
        assert len(reference.query(text)) == 2
        assert reference.last_stats.rows_pulled == 0
        plan = reference.plan(text)
        with pytest.raises(ValueError, match="reference engine"):
            reference.execute_plan(plan)
        with pytest.raises(ValueError, match="reference engine"):
            reference.evaluate_plan(plan)


#: Every graph accessor the evaluator calls on any graph kind.  (The star
#: ``COUNT`` also reads ``spo_index`` and ``predicate_objects``; the planner
#: gives it only a single ``Graph``, so a ``GraphUnion`` keeps the row
#: ``Group``.)
GRAPH_ACCESSORS = ("dictionary", "contains_ids", "triples_ids",
                   "objects_for", "subjects_for", "so_pairs", "so_pairs_list",
                   "objects_run", "subjects_run", "predicate_subjects_run",
                   "predicate_subjects_set", "sorted_runs_built",
                   "synopses_built")


@pytest.fixture
def graph_kinds(tmp_path):
    """One graph of each kind the evaluator runs over."""
    from repro.rdf import GraphUnion
    from repro.storage import GraphStore
    first, second = Graph("http://g1"), Graph("http://g2")
    first.add(uri("m1"), uri("starring"), uri("a1"))
    second.add(uri("m2"), uri("starring"), uri("a1"))
    store = GraphStore(str(tmp_path / "store"))
    store.open()
    store.attach([first])
    store.checkpoint()
    store.close()
    reopened = GraphStore(str(tmp_path / "store"))
    reopened.open()
    snapshot = reopened.graphs()["http://g1"]
    yield {"Graph": first, type(snapshot).__name__: snapshot,
           "GraphUnion": GraphUnion([first, second]),
           "GraphUnion(1)": GraphUnion([first])}
    reopened.close()


def test_every_graph_kind_has_every_accessor(graph_kinds):
    assert "SnapshotGraph" in graph_kinds
    for kind, graph in graph_kinds.items():
        missing = [name for name in GRAPH_ACCESSORS
                   if not hasattr(graph, name)]
        assert not missing, (kind, missing)


STAR_QUERIES = [
    "SELECT ?a (COUNT(*) AS ?n) WHERE { ?m x:starring ?a } GROUP BY ?a",
    "SELECT ?m (COUNT(?a) AS ?n) WHERE { ?m x:starring ?a } GROUP BY ?m",
    "SELECT ?a ?b (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a . "
    "?m x:starring ?b } GROUP BY ?a ?b",
    "SELECT (COUNT(DISTINCT ?m) AS ?n) WHERE { ?m x:starring x:a1 }",
]


@pytest.mark.parametrize("query", STAR_QUERIES)
def test_star_count_on_every_graph_kind(graph_kinds, query):
    """A single ``Graph`` (store-backed or not) is counted as a star, a
    union view folds rows; both agree with the reference evaluator over
    the same triples."""
    from repro.rdf import GraphUnion
    from repro.sparql import Evaluator, parse
    from repro.sparql.plan import optimize_plan

    for kind, graph in graph_kinds.items():
        plan = optimize_plan(parse(PFX + query), graph=graph)
        assert ("count=star" in plan.explain()) \
            == (not isinstance(graph, GraphUnion)), kind
        evaluator = Evaluator(Dataset())
        evaluator.dictionary = graph.dictionary
        table = evaluator.stream(plan.query.pattern, graph).to_table()
        got = sorted(tuple(repr(graph.dictionary.decode(i)) for i in row)
                     for row in table.rows)
        copy = Graph("http://copy")
        for triple in graph.triples():
            copy.add(*triple)
        reference = Engine(copy, columnar=False).query(PFX + query)
        assert got == sorted(tuple(map(repr, row))
                             for row in reference.rows), kind
