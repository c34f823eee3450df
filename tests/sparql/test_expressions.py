"""Unit tests for SPARQL expression evaluation semantics."""

import pytest

from repro.rdf.terms import BlankNode, Literal, URIRef, XSD_DATETIME
from repro.sparql.expressions import (AndExpr, ArithmeticExpr, CompareExpr,
                                      ConstExpr, ExpressionError,
                                      FunctionExpr, InExpr, NotExpr, OrExpr,
                                      UnaryMinusExpr, VarExpr, ebv)


def lit(value, **kwargs):
    return Literal(value, **kwargs)


def const(value, **kwargs):
    return ConstExpr(lit(value, **kwargs))


class TestVarAndConst:
    def test_var_bound(self):
        assert VarExpr("x").evaluate({"x": lit(1)}) == lit(1)

    def test_var_unbound_errors(self):
        with pytest.raises(ExpressionError):
            VarExpr("x").evaluate({})

    def test_const(self):
        assert const(5).evaluate({}) == lit(5)


class TestComparisons:
    @pytest.mark.parametrize("op,l,r,expected", [
        ("=", 5, 5, True), ("=", 5, 6, False),
        ("!=", 5, 6, True), ("<", 5, 6, True),
        ("<=", 5, 5, True), (">", 7, 6, True), (">=", 5, 6, False),
    ])
    def test_numeric(self, op, l, r, expected):
        result = CompareExpr(op, const(l), const(r)).evaluate({})
        assert ebv(result) is expected

    def test_numeric_type_promotion(self):
        assert ebv(CompareExpr("=", const(5), const(5.0)).evaluate({}))

    def test_string_ordering(self):
        assert ebv(CompareExpr("<", const("apple"), const("banana"))
                   .evaluate({}))

    def test_uri_equality_only(self):
        a, b = ConstExpr(URIRef("http://a")), ConstExpr(URIRef("http://b"))
        assert not ebv(CompareExpr("=", a, b).evaluate({}))
        assert ebv(CompareExpr("!=", a, b).evaluate({}))
        with pytest.raises(ExpressionError):
            CompareExpr("<", a, b).evaluate({})

    def test_blank_node_equality_only(self):
        a = ConstExpr(BlankNode("x"))
        assert ebv(CompareExpr("=", a, ConstExpr(BlankNode("x"))).evaluate({}))
        with pytest.raises(ExpressionError):
            CompareExpr(">", a, a).evaluate({})

    def test_mixed_string_number_lt_errors(self):
        with pytest.raises(ExpressionError):
            CompareExpr("<", const("a"), const(1)).evaluate({})

    def test_mixed_string_number_neq_true(self):
        assert ebv(CompareExpr("!=", const("a"), const(1)).evaluate({}))

    @pytest.mark.parametrize("left,right,equal", [
        (lit("abc", language="en"), lit("abc", language="fr"), False),
        (lit("abc", language="en"), lit("abc"), False),
        (lit("abc"), lit("abc", language="en"), False),
        (lit("abc", language="en"), lit("abc", language="en"), True),
        (lit("abc", language="en"), lit("abd", language="en"), False),
    ])
    def test_language_tags_take_part_in_equality(self, left, right, equal):
        left, right = ConstExpr(left), ConstExpr(right)
        assert ebv(CompareExpr("=", left, right).evaluate({})) is equal
        assert ebv(CompareExpr("!=", left, right).evaluate({})) is not equal

    def test_in_respects_language_tags(self):
        needle = ConstExpr(lit("abc", language="en"))
        options = [ConstExpr(lit("abc")), ConstExpr(lit("abc", language="fr"))]
        assert not ebv(InExpr(needle, options).evaluate({}))
        assert ebv(InExpr(needle, options + [needle]).evaluate({}))

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            CompareExpr("~", const(1), const(2))


class TestLogical:
    T, F = const(True), const(False)
    ERR = VarExpr("unbound")

    def test_and_truth_table(self):
        assert ebv(AndExpr(self.T, self.T).evaluate({}))
        assert not ebv(AndExpr(self.T, self.F).evaluate({}))

    def test_and_false_absorbs_error(self):
        assert not ebv(AndExpr(self.F, self.ERR).evaluate({}))
        assert not ebv(AndExpr(self.ERR, self.F).evaluate({}))

    def test_and_true_with_error_errors(self):
        with pytest.raises(ExpressionError):
            AndExpr(self.T, self.ERR).evaluate({})

    def test_or_true_absorbs_error(self):
        assert ebv(OrExpr(self.T, self.ERR).evaluate({}))
        assert ebv(OrExpr(self.ERR, self.T).evaluate({}))

    def test_or_false_with_error_errors(self):
        with pytest.raises(ExpressionError):
            OrExpr(self.F, self.ERR).evaluate({})

    def test_not(self):
        assert not ebv(NotExpr(self.T).evaluate({}))
        assert ebv(NotExpr(self.F).evaluate({}))


class TestInExpr:
    def test_member(self):
        expr = InExpr(VarExpr("x"), [const(1), const(2)])
        assert ebv(expr.evaluate({"x": lit(2)}))
        assert not ebv(expr.evaluate({"x": lit(3)}))

    def test_negated(self):
        expr = InExpr(VarExpr("x"), [const(1)], negated=True)
        assert ebv(expr.evaluate({"x": lit(3)}))

    def test_uri_membership(self):
        expr = InExpr(VarExpr("x"), [ConstExpr(URIRef("http://a"))])
        assert ebv(expr.evaluate({"x": URIRef("http://a")}))

    def test_error_option_skipped(self):
        expr = InExpr(VarExpr("x"), [VarExpr("unbound"), const(5)])
        assert ebv(expr.evaluate({"x": lit(5)}))


class TestArithmetic:
    @pytest.mark.parametrize("op,expected", [
        ("+", 8), ("-", 4), ("*", 12), ("/", 3),
    ])
    def test_ops(self, op, expected):
        result = ArithmeticExpr(op, const(6), const(2)).evaluate({})
        assert result.value == expected

    def test_division_by_zero_errors(self):
        with pytest.raises(ExpressionError):
            ArithmeticExpr("/", const(1), const(0)).evaluate({})

    def test_non_numeric_errors(self):
        with pytest.raises(ExpressionError):
            ArithmeticExpr("+", const("a"), const(1)).evaluate({})

    def test_unary_minus(self):
        assert UnaryMinusExpr(const(4)).evaluate({}).value == -4


class TestFunctions:
    def test_str_of_uri(self):
        result = FunctionExpr("str", [ConstExpr(URIRef("http://a"))])
        assert result.evaluate({}).lexical == "http://a"

    def test_lang_and_datatype(self):
        tagged = ConstExpr(lit("chat", language="fr"))
        assert FunctionExpr("lang", [tagged]).evaluate({}).lexical == "fr"
        typed = const(5)
        assert str(FunctionExpr("datatype", [typed]).evaluate({})).endswith(
            "integer")

    def test_bound(self):
        expr = FunctionExpr("bound", [VarExpr("x")])
        assert ebv(expr.evaluate({"x": lit(1)}))
        assert not ebv(expr.evaluate({}))

    def test_type_checks(self):
        uri = ConstExpr(URIRef("http://a"))
        literal = const("x")
        blank = ConstExpr(BlankNode("b"))
        assert ebv(FunctionExpr("isiri", [uri]).evaluate({}))
        assert ebv(FunctionExpr("isuri", [uri]).evaluate({}))
        assert not ebv(FunctionExpr("isiri", [literal]).evaluate({}))
        assert ebv(FunctionExpr("isliteral", [literal]).evaluate({}))
        assert ebv(FunctionExpr("isblank", [blank]).evaluate({}))
        assert ebv(FunctionExpr("isnumeric", [const(3)]).evaluate({}))

    def test_regex(self):
        expr = FunctionExpr("regex", [VarExpr("x"), const("^ab")])
        assert ebv(expr.evaluate({"x": lit("abc")}))
        assert not ebv(expr.evaluate({"x": lit("zabc")}))

    def test_regex_case_insensitive_flag(self):
        expr = FunctionExpr("regex", [VarExpr("x"), const("ABC"), const("i")])
        assert ebv(expr.evaluate({"x": lit("xabcx")}))

    def test_regex_requires_literals(self):
        expr = FunctionExpr("regex", [ConstExpr(URIRef("http://a")),
                                      const("a")])
        with pytest.raises(ExpressionError):
            expr.evaluate({})

    def test_bad_regex_errors(self):
        expr = FunctionExpr("regex", [const("abc"), const("(")])
        with pytest.raises(ExpressionError):
            expr.evaluate({})

    def test_string_functions(self):
        assert ebv(FunctionExpr("contains", [const("abc"), const("b")])
                   .evaluate({}))
        assert ebv(FunctionExpr("strstarts", [const("abc"), const("a")])
                   .evaluate({}))
        assert ebv(FunctionExpr("strends", [const("abc"), const("c")])
                   .evaluate({}))
        assert FunctionExpr("ucase", [const("ab")]).evaluate({}).lexical == "AB"
        assert FunctionExpr("lcase", [const("AB")]).evaluate({}).lexical == "ab"
        assert FunctionExpr("strlen", [const("abcd")]).evaluate({}).value == 4

    def test_date_parts(self):
        date = const("2015-03-07", datatype=XSD_DATETIME)
        assert FunctionExpr("year", [date]).evaluate({}).value == 2015
        assert FunctionExpr("month", [date]).evaluate({}).value == 3
        assert FunctionExpr("day", [date]).evaluate({}).value == 7

    @pytest.mark.parametrize("lexical,parts", [
        ("-0044-03-15T00:00:00", (-44, 3, 15)),
        ("2015-03-07T10:20:30Z", (2015, 3, 7)),
        ("12021-11-30", (12021, 11, 30)),
        ("0001-01-01T00:00:00", (1, 1, 1)),
    ])
    def test_date_parts_of_signed_and_long_years(self, lexical, parts):
        date = const(lexical, datatype=XSD_DATETIME)
        got = tuple(FunctionExpr(name, [date]).evaluate({}).value
                    for name in ("year", "month", "day"))
        assert got == parts

    def test_year_through_a_cast(self):
        cast = FunctionExpr("xsd:datetime", [const("-0044-03-15T00:00:00")])
        assert FunctionExpr("year", [cast]).evaluate({}) == lit(-44)

    @pytest.mark.parametrize("lexical", [
        "garbage", "2015", "2015-03", "15-03-07", "2015-3-07", "x2015-03-07",
        "--2015-03-07"])
    def test_date_parts_of_malformed_dates_error(self, lexical):
        for name in ("year", "month", "day"):
            with pytest.raises(ExpressionError):
                FunctionExpr(name, [const(lexical)]).evaluate({})

    def test_year_of_garbage_errors(self):
        with pytest.raises(ExpressionError):
            FunctionExpr("year", [const("garbage")]).evaluate({})

    def test_numeric_functions(self):
        assert FunctionExpr("abs", [const(-3)]).evaluate({}).value == 3
        assert FunctionExpr("ceil", [const(2.1)]).evaluate({}).value == 3
        assert FunctionExpr("floor", [const(2.9)]).evaluate({}).value == 2
        assert FunctionExpr("round", [const(2.5)]).evaluate({}).value == 2

    def test_casts(self):
        assert FunctionExpr("xsd:integer", [const("42")]).evaluate({}).value == 42
        assert FunctionExpr("xsd:double", [const("2.5")]).evaluate({}).value == 2.5
        result = FunctionExpr("xsd:datetime", [const("2010-01-02")]).evaluate({})
        assert result.datatype == XSD_DATETIME

    def test_bad_cast_errors(self):
        with pytest.raises(ExpressionError):
            FunctionExpr("xsd:integer", [const("abc")]).evaluate({})

    def test_unknown_function_errors(self):
        with pytest.raises(ExpressionError):
            FunctionExpr("frobnicate", [const(1)]).evaluate({})


class TestEbv:
    def test_boolean(self):
        assert ebv(lit(True)) is True
        assert ebv(lit(False)) is False

    def test_numeric(self):
        assert ebv(lit(1)) is True
        assert ebv(lit(0)) is False
        assert ebv(lit(0.0)) is False

    def test_string(self):
        assert ebv(lit("x")) is True
        assert ebv(lit("")) is False

    def test_uri_has_no_ebv(self):
        with pytest.raises(ExpressionError):
            ebv(URIRef("http://a"))


class TestRendering:
    def test_sparql_round_trippable_text(self):
        expr = AndExpr(CompareExpr(">=", VarExpr("n"), const(5)),
                       InExpr(VarExpr("c"), [const("a"), const("b")]))
        text = expr.sparql()
        assert "?n >= 5" in text
        assert "IN" in text

    def test_variables_collected(self):
        expr = OrExpr(CompareExpr("=", VarExpr("a"), VarExpr("b")),
                      FunctionExpr("bound", [VarExpr("c")]))
        assert set(expr.variables()) == {"a", "b", "c"}
