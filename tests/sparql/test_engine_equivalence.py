"""Engine-level differential corpus: the columnar engine must return the
same decoded result bag as the seed dict-based reference engine for every
SPARQL feature the tier-1 suite exercises."""

import pytest

from repro.rdf import Dataset, Graph, Literal, TermDictionary, URIRef
from repro.sparql import Endpoint, Engine, MalformedQuery, QueryServer
from repro.sparql.parser import ParseError, parse

from plan_variants import Variant

PFX = "PREFIX x: <http://x/>\n"


def uri(name):
    return URIRef("http://x/" + name)


@pytest.fixture(scope="module")
def dataset():
    d = TermDictionary()
    ds = Dataset()
    g = Graph("http://g", dictionary=d)
    for i in range(12):
        g.add(uri("m%d" % i), uri("type"), uri("Film"))
        g.add(uri("m%d" % i), uri("starring"), uri("a%d" % (i % 5)))
        g.add(uri("m%d" % i), uri("year"), Literal(1990 + i))
    for i in range(5):
        if i != 3:  # a3 has no birthplace: exercises OPTIONAL/unbound
            g.add(uri("a%d" % i), uri("born"), uri("c%d" % (i % 2)))
        g.add(uri("a%d" % i), uri("label"), Literal("Actor %d" % i))
    ds.add_graph(g)
    g2 = Graph("http://g2", dictionary=d)
    for i in range(5):
        g2.add(uri("a%d" % i), uri("award"), Literal(i))
    ds.add_graph(g2)
    return ds


CORPUS = [
    # BGP / joins
    "SELECT ?m ?a WHERE { ?m x:starring ?a }",
    "SELECT ?m ?c WHERE { ?m x:starring ?a . ?a x:born ?c }",
    "SELECT ?a WHERE { x:m1 x:starring ?a }",
    "SELECT ?p ?o WHERE { x:a1 ?p ?o }",
    "SELECT ?m WHERE { ?m x:nope ?a }",
    # OPTIONAL (plain and nested), unbound shared vars
    "SELECT ?a ?c WHERE { ?m x:starring ?a OPTIONAL { ?a x:born ?c } }",
    """SELECT * WHERE { ?m x:starring ?a
        OPTIONAL { ?a x:born ?c OPTIONAL { ?a x:label ?l } } }""",
    # SELECT * keeps a variable in scope that no solution binds
    "SELECT * WHERE { ?m x:year ?y OPTIONAL { ?m x:nothing ?o } }",
    # OPTIONAL with FILTER inside
    """SELECT ?m ?y WHERE { ?m x:starring ?a
        OPTIONAL { ?m x:year ?y FILTER(?y > 1995) } }""",
    # UNION
    """SELECT ?m WHERE { { ?m x:starring x:a1 } UNION { ?m x:year 1999 } }""",
    """SELECT ?a ?c ?l WHERE {
        { ?a x:born ?c } UNION { ?a x:label ?l } }""",
    # FILTER variants
    "SELECT ?m WHERE { ?m x:year ?y FILTER(?y >= 1995 && ?y < 2000) }",
    """SELECT ?a WHERE { ?m x:starring ?a OPTIONAL { ?a x:born ?c }
        FILTER(!bound(?c)) }""",
    # Six stacked filters, each on a required-side variable, over an
    # OPTIONAL: every one moves below the LeftJoin
    """SELECT ?m ?a ?c WHERE { ?m x:type ?t . ?m x:starring ?a .
        ?m x:year ?y . ?a x:label ?l . ?m2 x:starring ?a . ?m2 x:year ?y2
        OPTIONAL { ?a x:born ?c }
        FILTER(?y > 1992) FILTER(?y2 < 2000) FILTER(?t = x:Film)
        FILTER(?l != "Actor 0") FILTER(isIRI(?m2)) FILTER(isIRI(?m)) }""",
    "SELECT ?a WHERE { ?a x:label ?l FILTER regex(?l, \"Actor [12]\") }",
    # BIND
    "SELECT ?m ?n WHERE { ?m x:year ?y BIND(?y + 10 AS ?n) }",
    # BIND whose expression errors: the fresh var stays unbound.  (A BIND
    # over a var in scope is a parse error: TestInScopeTargets.)
    "SELECT ?m ?n WHERE { ?m x:year ?y BIND(str(?missing) AS ?n) }",
    # Aggregation: group, having, count(*), distinct, implicit group
    "SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a } GROUP BY ?a",
    """SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a }
        GROUP BY ?a HAVING (COUNT(?m) >= 3)""",
    "SELECT (COUNT(*) AS ?n) WHERE { ?m x:starring ?a }",
    "SELECT (COUNT(DISTINCT ?a) AS ?n) WHERE { ?m x:starring ?a }",
    """SELECT (SUM(?y) AS ?s) (MIN(?y) AS ?lo) (MAX(?y) AS ?hi)
        (AVG(?y) AS ?mean) WHERE { ?m x:year ?y }""",
    "SELECT (COUNT(?m) AS ?n) WHERE { ?m x:nope ?a }",
    # Modifiers
    "SELECT DISTINCT ?a WHERE { ?m x:starring ?a }",
    "SELECT ?m ?y WHERE { ?m x:year ?y } ORDER BY DESC(?y) LIMIT 4 OFFSET 2",
    "SELECT * WHERE { ?m x:year ?y } ORDER BY ?y",
    # Subqueries (materialized independently)
    """SELECT ?m ?n WHERE { ?m x:starring ?a
        { SELECT ?a (COUNT(?m) AS ?n) WHERE { ?m x:starring ?a }
          GROUP BY ?a } }""",
    """SELECT ?m ?a WHERE { ?m x:year 1999
        { SELECT ?a WHERE { ?m x:starring ?a } } }""",
    # VALUES
    """SELECT ?m ?a WHERE { ?m x:starring ?a
        VALUES ?a { x:a1 x:a2 } }""",
    # MINUS / EXISTS
    """SELECT ?a WHERE { ?m x:starring ?a MINUS { ?a x:born x:c0 } }""",
    """SELECT ?a WHERE { ?m x:starring ?a
        FILTER EXISTS { ?a x:born ?c } }""",
    """SELECT ?a WHERE { ?m x:starring ?a
        FILTER NOT EXISTS { ?a x:born ?c } }""",
]

MULTI_GRAPH_CORPUS = [
    """SELECT ?a ?w FROM <http://g> FROM <http://g2>
        WHERE { ?a x:label ?l . ?a x:award ?w }""",
    """SELECT ?a FROM <http://g> FROM <http://g2> WHERE {
        GRAPH <http://g> { ?a x:label ?l }
        GRAPH <http://g2> { ?a x:award ?w } }""",
]


def result_bag(engine, query, **kwargs):
    result = engine.query(PFX + query, **kwargs)
    return sorted(tuple(map(repr, row)) for row in result.rows), \
        list(result.variables)


@pytest.mark.parametrize("query", CORPUS, ids=range(len(CORPUS)))
def test_columnar_matches_reference(dataset, query):
    got = result_bag(Engine(dataset, columnar=True), query,
                     default_graph_uri="http://g")
    want = result_bag(Engine(dataset, columnar=False), query,
                      default_graph_uri="http://g")
    assert got == want


@pytest.mark.parametrize("query", MULTI_GRAPH_CORPUS,
                         ids=range(len(MULTI_GRAPH_CORPUS)))
def test_columnar_matches_reference_multigraph(dataset, query):
    got = result_bag(Engine(dataset, columnar=True), query)
    want = result_bag(Engine(dataset, columnar=False), query)
    assert got == want


@pytest.mark.parametrize("optimize", [True, False])
def test_unoptimized_columnar_agrees_too(dataset, optimize):
    # optimize=False: the plan built without graph statistics (textual
    # pattern order), as a private copy (plan_variants).
    query = "SELECT ?m ?c WHERE { ?m x:starring ?a . ?a x:born ?c }"
    engine = Engine(dataset) if optimize \
        else Variant(Engine(dataset), ordered=False)
    got = result_bag(engine, query, default_graph_uri="http://g")
    want = result_bag(Engine(dataset, columnar=False), query,
                      default_graph_uri="http://g")
    assert got == want


class TestInScopeTargets:
    """SPARQL 1.1 §18.2.1: ``BIND(e AS ?v)`` and ``SELECT (e AS ?v)`` may
    not bind a variable already in scope.  Both planes share the parser,
    so an overwrite is invisible to the differential above; the parser
    rejects it, and the serving tiers classify that as malformed."""

    REJECTED = {
        "bind_after_triples":
            "SELECT ?m ?y WHERE { ?m x:year ?y BIND(str(?missing) AS ?y) }",
        "bind_after_optional": """SELECT ?a ?c WHERE { ?m x:starring ?a
            OPTIONAL { ?a x:born ?c } BIND(1 AS ?c) }""",
        "bind_after_nested_group":
            "SELECT ?m ?y WHERE { { ?m x:year ?y } BIND(1 AS ?y) }",
        "select_as_where_variable":
            "SELECT ?m (?y + 1 AS ?y) WHERE { ?m x:year ?y }",
        "select_as_group_key": """SELECT (str(?a) AS ?a)
            WHERE { ?m x:starring ?a } GROUP BY ?a""",
        "aggregate_as_group_key": """SELECT (COUNT(?m) AS ?a)
            WHERE { ?m x:starring ?a } GROUP BY ?a""",
    }

    @pytest.mark.parametrize("case", sorted(REJECTED))
    def test_rejected_everywhere(self, dataset, case):
        text = PFX + self.REJECTED[case]
        with pytest.raises(ParseError, match=r"\?\w+ is already in scope"):
            parse(text)
        for engine in (Engine(dataset), Engine(dataset, columnar=False)):
            with pytest.raises(ParseError):
                engine.query(text, default_graph_uri="http://g")
        with pytest.raises(MalformedQuery):
            Endpoint(Engine(dataset)).request(text)
        with QueryServer(Engine(dataset), workers=1) as server:
            error = server.submit(text).error(timeout=10.0)
        assert isinstance(error, MalformedQuery)

    @pytest.mark.parametrize("query, expected", [
        # ?c is bound only on the MINUS right side, which exports nothing.
        ("""SELECT ?a ?c WHERE { ?m x:starring ?a MINUS { ?a x:born ?c }
            BIND(str(?a) AS ?c) }""",
         [("http://x/a3", "http://x/a3")] * 2),
        # A BIND before the pattern that uses its variable is a join.
        ("SELECT ?m ?y WHERE { BIND(1999 AS ?y) ?m x:year ?y }",
         [("http://x/m9", 1999)]),
    ], ids=["after_minus", "before_use"])
    def test_still_valid(self, dataset, query, expected):
        for engine in (Engine(dataset), Engine(dataset, columnar=False)):
            result = engine.query(PFX + query, default_graph_uri="http://g")
            assert [tuple(str(term) if isinstance(term, URIRef)
                          else term.value for term in row)
                    for row in result.rows] == expected


def test_stats_counters_agree_on_bgp(dataset):
    query = PFX + "SELECT ?m ?c WHERE { ?m x:starring ?a . ?a x:born ?c }"
    cols = Engine(dataset, columnar=True)
    ref = Engine(dataset, columnar=False)
    cols.query(query, default_graph_uri="http://g")
    ref.query(query, default_graph_uri="http://g")
    assert cols.last_stats.pattern_matches == ref.last_stats.pattern_matches
    assert cols.last_stats.bgp_count == ref.last_stats.bgp_count
    # The reference holds every operator's output; the production
    # operators count only what a pipeline breaker held.
    assert cols.last_stats.intermediate_rows \
        <= ref.last_stats.intermediate_rows
