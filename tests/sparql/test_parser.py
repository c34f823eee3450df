"""Unit tests for the SPARQL parser -> algebra translation."""

import pytest

from repro.rdf import Graph, TermDictionary
from repro.rdf.namespaces import RDF
from repro.rdf.terms import (XSD_DECIMAL, XSD_DOUBLE, XSD_INTEGER, Literal,
                             URIRef, Variable)
from repro.sparql import Engine
from repro.sparql import algebra as alg
from repro.sparql.parser import ParseError, parse


def unwrap(node, *types):
    """Descend through the given wrapper types."""
    while isinstance(node, types):
        node = node.pattern
    return node


class TestBasicQueries:
    def test_single_triple(self):
        q = parse("SELECT ?s WHERE { ?s ?p ?o . }")
        project = q.pattern
        assert isinstance(project, alg.Project)
        assert project.variables == ["s"]
        bgp = project.pattern
        assert isinstance(bgp, alg.BGP)
        assert bgp.triples == [(Variable("s"), Variable("p"), Variable("o"))]

    def test_select_star(self):
        q = parse("SELECT * WHERE { ?s ?p ?o }")
        assert q.pattern.variables is None

    def test_from_clause(self):
        q = parse("SELECT * FROM <http://g1> FROM <http://g2> "
                  "WHERE { ?s ?p ?o }")
        assert q.from_graphs == ["http://g1", "http://g2"]

    def test_prefix_resolution(self):
        q = parse("PREFIX ex: <http://e/>\n"
                  "SELECT * WHERE { ?s ex:p ex:o }")
        bgp = q.pattern.pattern
        assert bgp.triples[0][1] == URIRef("http://e/p")

    def test_default_prefixes_available(self):
        q = parse("SELECT * WHERE { ?m dbpp:starring ?a }")
        bgp = q.pattern.pattern
        assert str(bgp.triples[0][1]) == "http://dbpedia.org/property/starring"

    def test_a_keyword(self):
        q = parse("SELECT * WHERE { ?s a ?cls }")
        assert q.pattern.pattern.triples[0][1] == RDF.type

    def test_semicolon_shorthand(self):
        q = parse("SELECT * WHERE { ?s ?p ?o ; ?q ?r . }")
        triples = q.pattern.pattern.triples
        assert len(triples) == 2
        assert triples[0][0] == triples[1][0]

    def test_comma_shorthand(self):
        q = parse("SELECT * WHERE { ?s ?p ?a , ?b . }")
        triples = q.pattern.pattern.triples
        assert len(triples) == 2
        assert triples[0][1] == triples[1][1]

    def test_adjacent_bgps_merge(self):
        q = parse("SELECT * WHERE { ?a ?p ?b . ?b ?q ?c . ?c ?r ?d . }")
        assert isinstance(q.pattern.pattern, alg.BGP)
        assert len(q.pattern.pattern.triples) == 3

    def test_literals_in_triples(self):
        q = parse('SELECT * WHERE { ?s ?p "text" . ?s ?q 42 . ?s ?r 1.5 . '
                  "?s ?t true }")
        objects = [t[2] for t in q.pattern.pattern.triples]
        assert objects[0] == Literal("text")
        assert objects[1].value == 42
        assert objects[2].value == 1.5
        assert objects[3].value is True

    def test_typed_literal_in_triple(self):
        q = parse('SELECT * WHERE { ?s ?p "2010-01-01"^^xsd:date }')
        obj = q.pattern.pattern.triples[0][2]
        assert obj.datatype.endswith("date")


class TestPatterns:
    def test_optional(self):
        q = parse("SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s ?q ?r } }")
        assert isinstance(q.pattern.pattern, alg.LeftJoin)

    def test_triples_after_optional_join(self):
        q = parse("SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s ?q ?r } ?s ?t ?u }")
        node = q.pattern.pattern
        assert isinstance(node, alg.Join)
        assert isinstance(node.left, alg.LeftJoin)

    def test_union(self):
        q = parse("SELECT * WHERE { { ?s ?p ?o } UNION { ?s ?q ?r } }")
        assert isinstance(q.pattern.pattern, alg.Union)

    def test_filter_wraps_group(self):
        q = parse("SELECT * WHERE { ?s ?p ?o FILTER ( ?o > 5 ) }")
        assert isinstance(q.pattern.pattern, alg.Filter)

    def test_filter_bare_function_call(self):
        q = parse("SELECT * WHERE { ?s ?p ?o FILTER isIRI(?o) }")
        assert isinstance(q.pattern.pattern, alg.Filter)

    def test_filter_regex(self):
        q = parse('SELECT * WHERE { ?s ?p ?o '
                  'FILTER regex(str(?o), "USA") }')
        assert isinstance(q.pattern.pattern, alg.Filter)

    def test_nested_subquery(self):
        q = parse("""SELECT * WHERE {
            ?s ?p ?o
            { SELECT ?s WHERE { ?s ?q ?r } }
        }""")
        node = q.pattern.pattern
        assert isinstance(node, alg.Join)
        assert isinstance(node.right, alg.Project)

    def test_graph_clause(self):
        q = parse("SELECT * WHERE { GRAPH <http://g> { ?s ?p ?o } }")
        node = q.pattern.pattern
        assert isinstance(node, alg.GraphPattern)
        assert node.graph_uri == "http://g"

    def test_bind(self):
        q = parse("SELECT * WHERE { ?s ?p ?o BIND( ?o + 1 AS ?inc ) }")
        assert isinstance(q.pattern.pattern, alg.Extend)

    def test_minus(self):
        q = parse("SELECT * WHERE { ?s ?p ?o MINUS { ?s ?q ?r } }")
        assert isinstance(q.pattern.pattern, alg.Minus)

    def test_values_single_var(self):
        q = parse("SELECT * WHERE { ?s ?p ?o VALUES ?s { <http://x/a> } }")
        node = q.pattern.pattern
        assert isinstance(node, alg.Join)
        assert isinstance(node.right, alg.InlineData)

    def test_filter_exists_node(self):
        q = parse("SELECT * WHERE { ?s ?p ?o "
                  "FILTER EXISTS { ?s ?q ?r } }")
        assert isinstance(q.pattern.pattern, alg.FilterExists)
        assert not q.pattern.pattern.negated

    def test_filter_not_exists_node(self):
        q = parse("SELECT * WHERE { ?s ?p ?o "
                  "FILTER NOT EXISTS { ?s ?q ?r } }")
        assert q.pattern.pattern.negated


class TestAggregation:
    QUERY = """
    SELECT ?a (COUNT(DISTINCT ?m) AS ?n)
    WHERE { ?m ?p ?a }
    GROUP BY ?a
    HAVING ( COUNT(DISTINCT ?m) >= 5 )
    """

    def test_group_node(self):
        q = parse(self.QUERY)
        group = unwrap(q.pattern, alg.Project)
        assert isinstance(group, alg.Group)
        assert group.group_vars == ["a"]

    def test_select_aggregate_alias(self):
        q = parse(self.QUERY)
        group = unwrap(q.pattern, alg.Project)
        assert any(agg.alias == "n" for agg in group.aggregates)

    def test_having_reuses_select_aggregate(self):
        q = parse(self.QUERY)
        group = unwrap(q.pattern, alg.Project)
        assert group.having.variables() == ["n"]
        assert len(group.aggregates) == 1  # folded once, read twice

    def test_having_synthesizes_aggregate(self):
        q = parse(self.QUERY.replace("COUNT(DISTINCT ?m) >=",
                                     "COUNT(?m) >="))
        group = unwrap(q.pattern, alg.Project)
        assert group.having is not None
        assert len(group.aggregates) == 2  # ?n plus the HAVING aggregate

    def test_count_star(self):
        q = parse("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
        group = unwrap(q.pattern, alg.Project)
        assert group.aggregates[0].expression is None

    def test_implicit_group(self):
        q = parse("SELECT (COUNT(?s) AS ?n) WHERE { ?s ?p ?o }")
        group = unwrap(q.pattern, alg.Project)
        assert isinstance(group, alg.Group)
        assert group.group_vars == []

    def test_having_without_group_rejected(self):
        with pytest.raises(ParseError):
            parse("SELECT ?s WHERE { ?s ?p ?o } HAVING ( ?s > 1 )")

    def test_group_by_requires_variable(self):
        with pytest.raises(ParseError):
            parse("SELECT ?s WHERE { ?s ?p ?o } GROUP BY")


class TestModifiers:
    def test_distinct(self):
        q = parse("SELECT DISTINCT ?s WHERE { ?s ?p ?o }")
        assert isinstance(q.pattern, alg.Distinct)

    def test_order_by(self):
        q = parse("SELECT ?s WHERE { ?s ?p ?o } ORDER BY DESC(?s) ?o")
        assert isinstance(q.pattern, alg.OrderBy)
        assert q.pattern.keys == [("s", "desc"), ("o", "asc")]

    def test_limit_offset(self):
        q = parse("SELECT ?s WHERE { ?s ?p ?o } LIMIT 10 OFFSET 5")
        assert isinstance(q.pattern, alg.Slice)
        assert q.pattern.limit == 10
        assert q.pattern.offset == 5

    def test_expression_select_item(self):
        q = parse("SELECT (?a + 1 AS ?b) WHERE { ?s ?p ?a }")
        node = unwrap(q.pattern, alg.Project)
        assert isinstance(node, alg.Extend)
        assert node.var == "b"


class TestTermText:
    """String escapes and number typing are the ones ``rdf/terms.py``
    gives N-Triples and Turtle too."""

    @staticmethod
    def bind(expression):
        """``BIND(expression AS ?d)``'s value, the same on both planes."""
        graph = Graph("http://x/g", dictionary=TermDictionary())
        text = "SELECT ?d WHERE { BIND(%s AS ?d) }" % expression
        production, reference = (
            Engine(graph, columnar=columnar).query(text).rows
            for columnar in (True, False))
        assert production == reference
        return production[0][0]

    @pytest.mark.parametrize("number,datatype", [
        ("1.5", XSD_DECIMAL), (".5", XSD_DECIMAL), ("1.5e0", XSD_DOUBLE),
        ("1E3", XSD_DOUBLE), ("1", XSD_INTEGER)])
    def test_a_point_makes_a_decimal_and_an_exponent_a_double(
            self, number, datatype):
        assert self.bind("DATATYPE(%s)" % number) == URIRef(datatype)

    @pytest.mark.parametrize("body,text", [
        (r"\u00e9", "é"), (r"\U0001F600", "\U0001F600"),
        (r"C:\\temp", "C:\\temp"), (r"a\tb", "a\tb"), (r"\q", "\\q")])
    def test_string_escapes(self, body, text):
        assert self.bind('"%s"' % body) == Literal(text)

    def test_point_without_digits_ends_the_triple(self):
        q = parse("SELECT * WHERE { ?s ?p 1. ?s ?q ?o }")
        triples = q.pattern.pattern.triples
        assert [t[2] for t in triples] == [Literal(1), Variable("o")]


class TestErrors:
    @pytest.mark.parametrize("bad", [
        "SELECT WHERE { ?s ?p ?o }",            # empty select
        "SELECT ?s { ?s ?p }",                  # incomplete triple
        "SELECT ?s WHERE { ?s ?p ?o ",          # unterminated group
        "SELECT ?s WHERE { ?s nope:p ?o }",     # unknown prefix
        "ASK { ?s ?p ?o }",                     # unsupported form
        "SELECT ?s WHERE { ?s ?p ?o } extra",   # trailing garbage
    ])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse(bad)


class TestHelpers:
    def test_count_nested_selects(self):
        from repro.sparql import count_nested_selects
        q = parse("""SELECT * WHERE {
            { SELECT * WHERE { ?a ?b ?c { SELECT ?d WHERE { ?d ?e ?f } } } }
            { SELECT ?g WHERE { ?g ?h ?i } }
        }""")
        assert count_nested_selects(q.pattern) == 3

    def test_in_scope_variables(self):
        q = parse("SELECT * WHERE { ?s ?p ?o OPTIONAL { ?s ?q ?r } }")
        assert set(q.pattern.in_scope()) == {"s", "p", "o", "q", "r"}
