"""Unit tests for the filter-condition mini-language."""

import pytest

from repro.client import EngineClient
from repro.core import KnowledgeGraph
from repro.core.conditions import (ConditionError, condition_to_sparql,
                                   expression_variables, rename_variable,
                                   render_value)
from repro.rdf import Graph, Literal, TermDictionary, URIRef
from repro.sparql import Engine


class TestComparisons:
    def test_numeric_threshold(self):
        assert condition_to_sparql("n", ">=50") == "?n >= 50"

    def test_all_operators(self):
        for op in (">=", "<=", "!=", "=", ">", "<"):
            assert condition_to_sparql("x", op + "5") == "?x %s 5" % op

    def test_prefixed_name_value(self):
        assert condition_to_sparql("country", "=dbpr:United_States") == \
            "?country = dbpr:United_States"

    def test_angle_bracket_uri_value(self):
        assert condition_to_sparql("c", "=<http://x/a>") == "?c = <http://x/a>"

    def test_string_value_quoted(self):
        assert condition_to_sparql("name", "=some value") == \
            '?name = "some value"'

    def test_already_quoted_kept(self):
        assert condition_to_sparql("name", '="USA"') == '?name = "USA"'

    def test_numeric_condition_value(self):
        assert condition_to_sparql("n", 5) == "?n = 5"

    def test_variable_value(self):
        assert condition_to_sparql("a", "=?b") == "?a = ?b"

    def test_negative_number(self):
        assert condition_to_sparql("n", ">=-3") == "?n >= -3"


class TestFunctions:
    @pytest.mark.parametrize("name,rendered", [
        ("isURI", "isIRI(?c)"), ("isIRI", "isIRI(?c)"),
        ("isLiteral", "isLiteral(?c)"), ("isBlank", "isBlank(?c)"),
        ("bound", "bound(?c)"),
    ])
    def test_boolean_predicates(self, name, rendered):
        assert condition_to_sparql("c", name) == rendered

    def test_case_insensitive(self):
        assert condition_to_sparql("c", "isuri") == "isIRI(?c)"


class TestMembership:
    def test_in_list(self):
        assert condition_to_sparql("conf", "In(dblprc:vldb, dblprc:sigmod)") \
            == "?conf IN (dblprc:vldb, dblprc:sigmod)"

    def test_in_with_strings(self):
        result = condition_to_sparql("g", 'In("a", "b")')
        assert result == '?g IN ("a", "b")'

    def test_empty_in_rejected(self):
        with pytest.raises(ConditionError):
            condition_to_sparql("c", "In()")


class TestRawExpressions:
    def test_raw_passthrough(self):
        raw = 'regex(str(?actor_country), "USA")'
        assert condition_to_sparql("actor_country", raw) == raw

    def test_year_expression(self):
        raw = "year(xsd:dateTime(?date)) >= 2005"
        assert condition_to_sparql("date", raw) == raw

    def test_bare_value_means_equality(self):
        assert condition_to_sparql("c", "dbpr:X") == "?c = dbpr:X"

    def test_empty_condition_rejected(self):
        with pytest.raises(ConditionError):
            condition_to_sparql("c", "  ")

    def test_non_string_rejected(self):
        with pytest.raises(ConditionError):
            condition_to_sparql("c", ["list"])


class TestHelpers:
    def test_rename_variable_word_boundary(self):
        expr = "?actor = ?actor_country"
        assert rename_variable(expr, "actor", "star") == \
            "?star = ?actor_country"

    def test_expression_variables(self):
        assert expression_variables("?a >= 5 && bound(?b_c)") == ["a", "b_c"]

    def test_render_value_quotes_text(self):
        assert render_value("hello world") == '"hello world"'
        assert render_value("42") == "42"
        assert render_value("true") == "true"


class TestValuesReachTheEngineAsWritten:
    """A filter value is written with the shared escaper, so the engine
    reads back the very string the caller passed (before, ``\\t`` in a
    Windows path read as a tab and a newline failed to tokenize)."""

    @pytest.mark.parametrize("value", ["C:\\temp", "two\nlines",
                                       'say "hi" \\ bye'])
    def test_filter_matches_the_literal(self, value):
        graph = Graph("http://x/g", dictionary=TermDictionary())
        for name, text in (("a", value), ("b", "other")):
            graph.add(URIRef("http://x/" + name), URIRef("http://x/p"),
                      Literal(text))
        frame = (KnowledgeGraph(graph_uri="http://x/g")
                 .feature_domain_range("<http://x/p>", "s", "t")
                 .filter({"t": ["=" + value]}))
        for columnar in (True, False):
            result = frame.execute(EngineClient(Engine(graph,
                                                       columnar=columnar)))
            assert result.to_records() == [("http://x/a", value)]
