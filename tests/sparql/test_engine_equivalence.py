"""Engine-level differential corpus: the columnar engine must return the
same decoded result bag as the seed dict-based reference engine for every
SPARQL feature the tier-1 suite exercises."""

import pytest

from repro.rdf import Dataset, Graph, Literal, TermDictionary, URIRef
from repro.sparql import Engine

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
    "SELECT ?a WHERE { ?a x:label ?l FILTER regex(?l, \"Actor [12]\") }",
    # BIND
    "SELECT ?m ?n WHERE { ?m x:year ?y BIND(?y + 10 AS ?n) }",
    # BIND whose expression errors: fresh var stays unbound ...
    "SELECT ?m ?n WHERE { ?m x:year ?y BIND(str(?missing) AS ?n) }",
    # ... and an already-bound var keeps its existing binding.
    "SELECT ?m ?y WHERE { ?m x:year ?y BIND(str(?missing) AS ?y) }",
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
    query = "SELECT ?m ?c WHERE { ?m x:starring ?a . ?a x:born ?c }"
    got = result_bag(Engine(dataset, columnar=True, optimize=optimize),
                     query, default_graph_uri="http://g")
    want = result_bag(Engine(dataset, columnar=False, optimize=optimize),
                      query, default_graph_uri="http://g")
    assert got == want


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
