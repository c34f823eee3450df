"""Differential tests: the columnar operators match the seed dict-based
multiset semantics on the same fixtures.

The dict-based functions in ``repro.sparql.solution`` are the executable
reference (they are what the seed engine shipped with); every columnar
operator must produce the same *bag* of mappings after decoding.  Covered
edge cases per the issue: unbound shared variables, repeated variables in a
triple pattern, and duplicate-preserving (bag) multiplicities.  The join
kernel (:class:`~repro.sparql.solution.JoinIndex`) is reached both through
the ``table_*`` functions and through the stream operators over ``VALUES``.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Dataset, Graph, Literal, TermDictionary, URIRef
from repro.sparql import Engine, ReferenceEvaluator
from repro.sparql import algebra as alg
from repro.sparql import evaluator as evaluator_module
from repro.sparql import solution as solution_module
from repro.sparql.evaluator import Evaluator
from repro.sparql.expressions import CompareExpr, ConstExpr, VarExpr
from repro.sparql.solution import (distinct, hash_join,
                                   left_join, minus, project,
                                   table_from_mappings,
                                   table_join, table_left_join, table_minus,
                                   table_to_mappings)

VARS = ["a", "b", "c"]
_values = st.one_of(st.none(), st.integers(min_value=0, max_value=3))


def make_mapping(values):
    return {v: Literal(x) for v, x in zip(VARS, values) if x is not None}


_mappings = st.tuples(_values, _values, _values).map(make_mapping)
_multisets = st.lists(_mappings, max_size=12)


def as_bag(multiset):
    return sorted(tuple(sorted((k, repr(v)) for k, v in mu.items()))
                  for mu in multiset)


def tables_for(left, right, left_vars=VARS, right_vars=VARS):
    """Encode both multisets over one dictionary with full 3-var schemas,
    so shared-but-sometimes-unbound variables become None cells."""
    d = TermDictionary()
    return (table_from_mappings(left, d, left_vars),
            table_from_mappings(right, d, right_vars), d)


def values(multiset, variables=VARS):
    """The multiset as a ``VALUES`` node (``UNDEF`` for unbound)."""
    return alg.InlineData(variables, [tuple(mu.get(v) for v in variables)
                                      for mu in multiset])


def empty_dataset():
    ds = Dataset()
    ds.add_graph(Graph("http://g", dictionary=TermDictionary()))
    return ds


def run_operators(node):
    """Decoded output of the production stream operators for ``node``."""
    evaluator = Evaluator(empty_dataset())
    table = evaluator.evaluate_query_stream(alg.Query(node)).to_table()
    return table_to_mappings(table, evaluator.dictionary)


@settings(max_examples=120, deadline=None)
@given(_multisets, _multisets)
def test_table_join_matches_dict_join(left, right):
    lt, rt, d = tables_for(left, right)
    got = table_to_mappings(table_join(lt, rt), d)
    # The dict join receives the shared-variable list explicitly; the table
    # join derives it from the schemas.  With identical 3-var schemas both
    # see the same shared variables.
    want = hash_join(left, right, VARS)
    assert as_bag(got) == as_bag(want)
    streamed = run_operators(alg.Join(values(left), values(right)))
    assert as_bag(streamed) == as_bag(want)


@settings(max_examples=120, deadline=None)
@given(_multisets, _multisets)
def test_table_left_join_matches_dict_left_join(left, right):
    lt, rt, d = tables_for(left, right)
    got = table_to_mappings(table_left_join(lt, rt), d)
    want = left_join(left, right, VARS)
    assert as_bag(got) == as_bag(want)
    streamed = run_operators(alg.LeftJoin(values(left), values(right)))
    assert as_bag(streamed) == as_bag(want)


@settings(max_examples=120, deadline=None)
@given(_multisets, _multisets)
def test_table_minus_matches_dict_minus(left, right):
    lt, rt, d = tables_for(left, right)
    got = table_to_mappings(table_minus(lt, rt), d)
    want = minus(left, right, VARS)
    assert as_bag(got) == as_bag(want)
    streamed = run_operators(alg.Minus(values(left), values(right)))
    assert as_bag(streamed) == as_bag(want)


def _lit(**cells):
    return {v: Literal(x) for v, x in cells.items()}


#: name -> (left, right, left schema, right schema): the shapes the join
#: kernel branches on.
KERNEL_CASES = {
    "empty-build": ([_lit(a=1), _lit(a=2, b=1)], [], VARS, VARS),
    "empty-probe": ([], [_lit(a=1)], VARS, VARS),
    "no-shared-column": ([_lit(a=1), _lit(a=2)], [_lit(b=1), _lit(b=2)],
                         ["a"], ["b"]),
    # ?b is the only shared column and is unbound somewhere on both
    # sides: nothing to hash on, every probe scans.
    "all-unbound-key": ([_lit(a=1), _lit(a=2, b=1), _lit(b=2)],
                        [_lit(b=1, c=1), _lit(c=2), _lit(b=3)],
                        ["a", "b"], ["b", "c"]),
    # ?a keys the index; ?b is residual (checked inside the bucket) and
    # one probe row has no ?a at all.
    "key-plus-residual": ([_lit(a=1, b=1), _lit(a=1), _lit(b=2),
                           _lit(a=2, b=2)],
                          [_lit(a=1, b=1, c=1), _lit(a=1, c=2),
                           _lit(a=2, b=3, c=3)],
                          ["a", "b"], ["a", "b", "c"]),
}


@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_join_kernel_cases_match_dict_semantics(case):
    left, right, lvars, rvars = KERNEL_CASES[case]
    common = [v for v in lvars if v in rvars]
    lt, rt, d = tables_for(left, right, lvars, rvars)
    lnode, rnode = values(left, lvars), values(right, rvars)
    for table_op, node, want in (
            (table_join, alg.Join(lnode, rnode),
             hash_join(left, right, common)),
            (table_left_join, alg.LeftJoin(lnode, rnode),
             left_join(left, right, common)),
            (table_minus, alg.Minus(lnode, rnode),
             minus(left, right, common))):
        assert as_bag(table_to_mappings(table_op(lt, rt), d)) \
            == as_bag(want), table_op.__name__
        assert as_bag(run_operators(node)) == as_bag(want), node
    reference = ReferenceEvaluator(empty_dataset())
    for negated in (False, True):
        node = alg.FilterExists(lnode, rnode, negated=negated)
        assert as_bag(run_operators(node)) \
            == as_bag(reference.evaluate_query(alg.Query(node))), node


@settings(max_examples=60, deadline=None)
@given(_multisets)
def test_table_distinct_matches_dict_distinct(ms):
    got = run_operators(alg.Distinct(values(ms)))
    assert as_bag(got) == as_bag(distinct(ms))


@settings(max_examples=60, deadline=None)
@given(_multisets)
def test_table_project_keeps_multiplicity(ms):
    got = run_operators(alg.Project(values(ms), ["a"]))
    assert as_bag(got) == as_bag(project(ms, ["a"]))
    assert len(got) == len(ms)  # bag semantics: one output row per input


@settings(max_examples=60, deadline=None)
@given(_multisets, _multisets)
def test_table_union_is_aligned_bag_concat(left, right):
    got = run_operators(alg.Union(values(left), values(right)))
    assert as_bag(got) == as_bag(list(left) + list(right))


class TestHandPickedEdgeCases:
    def test_join_with_unbound_shared_variable(self):
        left = [{"a": Literal(1)}, {"a": Literal(1), "b": Literal(2)}]
        right = [{"b": Literal(2)}, {"b": Literal(3)}]
        lt, rt, d = tables_for(left, right)
        got = table_to_mappings(table_join(lt, rt), d)
        want = hash_join(left, right, VARS)
        assert as_bag(got) == as_bag(want)
        # {a:1} is compatible with both right rows; {a:1,b:2} only with b=2.
        assert len(got) == 3

    def test_left_join_pads_unmatched_rows(self):
        left = [{"a": Literal(1)}, {"a": Literal(9), "b": Literal(9)}]
        right = [{"a": Literal(1), "c": Literal(5)}]
        lt, rt, d = tables_for(left, right)
        got = table_to_mappings(table_left_join(lt, rt), d)
        assert as_bag(got) == as_bag(left_join(left, right, VARS))
        assert {"a": Literal(9), "b": Literal(9)} in got

    def test_minus_needs_a_shared_bound_variable(self):
        left = [{"a": Literal(1)}]
        right = [{"b": Literal(2)}]  # compatible but disjoint domains
        lt, rt, d = tables_for(left, right)
        got = table_to_mappings(table_minus(lt, rt), d)
        assert as_bag(got) == as_bag(left)  # survives: no shared bound var

    def test_duplicates_preserved_through_join(self):
        left = [{"a": Literal(1)}] * 3
        right = [{"a": Literal(1)}] * 2
        lt, rt, d = tables_for(left, right)
        got = table_to_mappings(table_join(lt, rt), d)
        assert len(got) == 6  # 3 x 2 bag multiplicities


class TestRepeatedPatternVariables:
    """Repeated variables inside one triple pattern must agree — checked at
    the id level by the columnar matcher."""

    @pytest.fixture
    def graph(self):
        g = Graph("http://g", dictionary=TermDictionary())
        u = lambda n: URIRef("http://x/" + n)
        g.add(u("n"), u("p"), u("n"))      # self loop
        g.add(u("n"), u("p"), u("other"))
        g.add(u("m"), u("loves"), u("m"))
        return g

    def run_both(self, graph, query):
        cols = Engine(graph, columnar=True).query(query)
        ref = Engine(graph, columnar=False).query(query)
        return (sorted(map(repr, cols.rows)), sorted(map(repr, ref.rows)))

    def test_subject_equals_object(self, graph):
        got, want = self.run_both(
            graph, "SELECT ?x WHERE { ?x <http://x/p> ?x }")
        assert got == want
        assert len(got) == 1

    def test_repeated_variable_across_patterns(self, graph):
        got, want = self.run_both(graph, """
            SELECT ?x ?y WHERE {
                ?x <http://x/p> ?y . ?y <http://x/p> ?y }""")
        assert got == want


class TestConditionalLeftJoin:
    """LeftJoin with a condition (algebra-level OPTIONAL+FILTER): the
    columnar implementation hash-partitions instead of the reference's
    quadratic nested loop, but the semantics must match exactly."""

    @pytest.fixture
    def dataset_query(self):
        from repro.rdf import Variable

        d = TermDictionary()
        g = Graph("http://g", dictionary=d)
        u = lambda n: URIRef("http://x/" + n)
        for i in range(40):
            g.add(u("m%d" % i), u("starring"), u("a%d" % (i % 7)))
        for i in range(7):
            g.add(u("a%d" % i), u("age"), Literal(10 * i))
        ds = Dataset()
        ds.add_graph(g)

        var = Variable
        left = alg.BGP([(var("m"), u("starring"), var("a"))])
        right = alg.BGP([(var("a"), u("age"), var("age"))])
        condition = CompareExpr(">", VarExpr("age"), ConstExpr(Literal(25)))
        query = alg.Query(alg.LeftJoin(left, right, condition=condition))
        return ds, query

    def test_matches_reference_semantics(self, dataset_query):
        ds, query = dataset_query
        cols = Evaluator(ds)
        table = cols.evaluate_query_stream(query).to_table()
        got = table_to_mappings(table, cols.dictionary)
        want = ReferenceEvaluator(ds).evaluate_query(query)
        assert as_bag(got) == as_bag(want)
        # Sanity: rows whose actor is too young survive unextended.
        assert any("age" not in mu for mu in got)
        assert any("age" in mu for mu in got)

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_accept_on_every_kernel_path(self, case):
        """The condition sees exactly the kernel's candidates, whichever
        way they were found (bucket, residual check, scan)."""
        left, right, lvars, rvars = KERNEL_CASES[case]
        probe = "c" if "c" in rvars else rvars[0]
        condition = CompareExpr(">", VarExpr(probe), ConstExpr(Literal(1)))
        node = alg.LeftJoin(values(left, lvars), values(right, rvars),
                            condition=condition)
        want = ReferenceEvaluator(empty_dataset()).evaluate_query(
            alg.Query(node))
        assert as_bag(run_operators(node)) == as_bag(want)


class TestSparseSharedColumnPathology:
    """Two 2 000-row inputs sharing ``(a, g)`` with ``g`` unbound in half
    the rows on both sides.  Hashing on every shared column sends each
    half-bound row to a nested loop (4 M compatibility checks); the
    kernel hashes on the always-bound ``a`` and checks ``g`` only inside
    the bucket."""

    N = 2000

    @pytest.fixture
    def count_compat(self, monkeypatch):
        calls = [0]
        raw = solution_module._rows_compatible

        def counted(lrow, rrow, shared):
            calls[0] += 1
            return raw(lrow, rrow, shared)

        monkeypatch.setattr(solution_module, "_rows_compatible", counted)
        # A module that imported the function by name keeps its own
        # reference; count through that one too.
        monkeypatch.setattr(evaluator_module, "_rows_compatible", counted,
                            raising=False)
        return calls

    def sides(self):
        left = [_lit(a=i, g=i % 5) if i % 2 else _lit(a=i)
                for i in range(self.N)]
        right = [_lit(a=i, g=i % 5 if i % 3 else 7, c=i) if i % 4 < 2
                 else _lit(a=i, c=i) for i in range(self.N)]
        return left, right

    @pytest.mark.parametrize("operator", ["join", "left_join"])
    def test_kernel_is_linear(self, operator, count_compat):
        left, right = self.sides()
        lt, rt, d = tables_for(left, right, ["a", "g"], ["a", "g", "c"])
        if operator == "join":
            got, want = table_join(lt, rt), hash_join(left, right, ["a", "g"])
        else:
            got = table_left_join(lt, rt)
            want = left_join(left, right, ["a", "g"])
        assert as_bag(table_to_mappings(got, d)) == as_bag(want)
        assert count_compat[0] <= len(want) + 2 * self.N

    @pytest.fixture(scope="class")
    def graph(self):
        g = Graph("http://g", dictionary=TermDictionary())
        u = lambda n: URIRef("http://x/" + n)
        for i in range(self.N):
            s = u("s%d" % i)
            g.add(s, u("p"), Literal(i))
            g.add(s, u("q"), Literal(-i))
            if i % 2:
                g.add(s, u("g"), Literal(i % 5))
            if i % 4 < 2:
                g.add(s, u("h"), Literal(i % 5 if i % 3 else 7))
        return g

    @pytest.mark.parametrize("keyword", ["", "OPTIONAL"])
    @pytest.mark.parametrize("vectorize", ["auto", True])
    def test_engine_planes_are_linear(self, graph, keyword, vectorize,
                                      count_compat):
        query = """PREFIX x: <http://x/>
        SELECT ?a ?g ?x ?y WHERE {
            { SELECT ?a ?g ?x WHERE { ?a x:p ?x OPTIONAL { ?a x:g ?g } } }
            %s
            { SELECT ?a ?g ?y WHERE { ?a x:q ?y OPTIONAL { ?a x:h ?g } } }
        }""" % keyword
        want = Engine(graph, columnar=False).query(query)
        count_compat[0] = 0
        got = Engine(graph, vectorize=vectorize).query(query)
        assert sorted(map(repr, got.rows)) == sorted(map(repr, want.rows))
        assert count_compat[0] <= len(want) + 2 * self.N
