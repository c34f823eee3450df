"""Recursive-descent parser: SPARQL text -> algebra tree.

Supports the SELECT fragment used throughout the paper:

* prologue (``PREFIX``),
* ``SELECT [DISTINCT] (* | ?var... | (expr AS ?var) | (AGG(...) AS ?var))``,
* ``FROM <uri>`` (multiple),
* group graph patterns with triple blocks (``;`` and ``,`` shorthand and the
  ``a`` keyword), ``FILTER``, ``OPTIONAL``, ``UNION``, ``GRAPH``, ``BIND``,
  and nested ``SELECT`` subqueries,
* ``GROUP BY`` / ``HAVING`` (aggregates inside HAVING are supported by
  rewriting them to synthetic aggregate aliases),
* ``ORDER BY`` / ``LIMIT`` / ``OFFSET``.

The group graph pattern is translated following the SPARQL algebra rules:
adjacent triple blocks accumulate into a BGP, ``OPTIONAL`` becomes
``LeftJoin(pattern-so-far, optional-pattern, condition)``, other elements
are joined, and the group's filters wrap the result.  The filters at the
top of an ``OPTIONAL { }`` group are the LeftJoin's condition instead
(SPARQL 1.1 §18.2.2), so they see the bindings of both sides.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import List, Optional, Tuple

from ..rdf.namespaces import DEFAULT_PREFIXES, RDF
from ..rdf.terms import Literal, URIRef, Variable, XSD_INTEGER, XSD_DOUBLE
from . import algebra as alg
from .expressions import (AndExpr, ArithmeticExpr, CompareExpr, ConstExpr,
                          Expression, FunctionExpr, InExpr, NotExpr, OrExpr,
                          UnaryMinusExpr, VarExpr)
from .tokenizer import Token, tokenize

_AGG_KEYWORDS = ("COUNT", "SUM", "MIN", "MAX", "AVG", "SAMPLE", "GROUP_CONCAT")

#: SPARQL string-literal escape sequences (ECHAR).  Unknown sequences
#: keep their backslash verbatim, matching the previous lenient behavior.
_STRING_ESCAPE = re.compile(r"\\(.)", re.DOTALL)
_STRING_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f",
                   '"': '"', "'": "'", "\\": "\\"}

_BUILTIN_FUNCTIONS = frozenset("""
    regex str lang datatype bound isiri isuri isliteral isblank isnumeric
    contains strstarts strends ucase lcase strlen year month day abs ceil
    floor round
""".split())


class ParseError(ValueError):
    def __init__(self, message: str, token: Token):
        super().__init__("line %d: %s (at %r)" % (token.line, message,
                                                  token.value or "<eof>"))
        self.token = token


def _check_fresh(var: str, in_scope, token: Token):
    """SPARQL 1.1 §18.2.1: the variable of ``BIND(e AS ?v)`` or
    ``SELECT (e AS ?v)`` must not be in scope already — rebinding it is an
    error, not an overwrite."""
    name = var.lstrip("?$")
    if name in in_scope:
        raise ParseError("?%s is already in scope" % name, token)


class _SelectItem:
    """One item of the SELECT clause before aggregate extraction."""

    def __init__(self, var: Optional[str] = None,
                 expression: Optional[Expression] = None,
                 alias: Optional[str] = None,
                 aggregate: Optional[alg.Aggregate] = None):
        self.var = var
        self.expression = expression
        self.alias = alias
        self.aggregate = aggregate


class Parser:
    """Parser state over a token list."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.prefixes = dict(DEFAULT_PREFIXES)
        self._synthetic_counter = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    def peek(self, ahead: int = 0) -> Token:
        index = min(self.pos + ahead, len(self.tokens) - 1)
        return self.tokens[index]

    def next(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind != "EOF":
            self.pos += 1
        return token

    def accept(self, kind: str, value: Optional[str] = None) -> Optional[Token]:
        token = self.peek()
        if token.kind != kind:
            return None
        if value is not None and token.value != value:
            return None
        return self.next()

    def expect(self, kind: str, value: Optional[str] = None) -> Token:
        token = self.accept(kind, value)
        if token is None:
            raise ParseError("expected %s%s" % (kind, " %r" % value if value else ""),
                             self.peek())
        return token

    def at_keyword(self, *keywords: str) -> bool:
        token = self.peek()
        return token.kind == "KEYWORD" and token.value in keywords

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def parse_query(self) -> alg.Query:
        self._parse_prologue()
        node = self._parse_select_query(top_level=True)
        self.expect("EOF")
        from_graphs = self._top_from_graphs
        return alg.Query(node, from_graphs=from_graphs, prefixes=self.prefixes)

    def _parse_prologue(self):
        while self.at_keyword("PREFIX", "BASE"):
            keyword = self.next().value
            if keyword == "PREFIX":
                pname = self.expect("PNAME").value
                prefix = pname[:-1] if pname.endswith(":") else pname.split(":")[0]
                iri = self.expect("IRI").value
                self.prefixes[prefix] = iri[1:-1]
            else:
                self.expect("IRI")  # BASE accepted and ignored

    # ------------------------------------------------------------------
    # SELECT query (top-level or nested)
    # ------------------------------------------------------------------
    def _parse_select_query(self, top_level: bool = False) -> alg.AlgebraNode:
        self.expect("KEYWORD", "SELECT")
        distinct = bool(self.accept("KEYWORD", "DISTINCT"))
        self.accept("KEYWORD", "REDUCED")
        items, star = self._parse_select_items()

        from_graphs: List[str] = []
        while self.at_keyword("FROM"):
            self.next()
            self.accept("KEYWORD", "NAMED")
            from_graphs.append(self.expect("IRI").value[1:-1])
        if top_level:
            self._top_from_graphs = from_graphs

        self.accept("KEYWORD", "WHERE")
        pattern = self._parse_group_graph_pattern()

        group_vars: Optional[List[str]] = None
        if self.at_keyword("GROUP"):
            self.next()
            self.expect("KEYWORD", "BY")
            group_vars = []
            while self.peek().kind == "VAR":
                group_vars.append(self.next().value.lstrip("?$"))
            if not group_vars:
                raise ParseError("GROUP BY requires at least one variable",
                                 self.peek())

        having_aggs: List[alg.Aggregate] = []
        having_expr: Optional[Expression] = None
        if self.at_keyword("HAVING"):
            self.next()
            having_expr = self._parse_constraint(collect_aggregates=having_aggs)

        # Assemble aggregation.
        select_aggs = [item.aggregate for item in items if item.aggregate]
        all_aggs = select_aggs + having_aggs
        if group_vars is not None or all_aggs:
            for aggregate in select_aggs:
                _check_fresh(aggregate.alias, group_vars or (), self.peek())
            pattern = alg.Group(pattern, group_vars or [], all_aggs, having_expr)
        elif having_expr is not None:
            raise ParseError("HAVING without GROUP BY or aggregates", self.peek())

        # Non-aggregate computed select items become Extend nodes.
        for item in items:
            if item.expression is not None and item.aggregate is None:
                _check_fresh(item.alias, pattern.in_scope(), self.peek())
                pattern = alg.Extend(pattern, item.alias, item.expression)

        if star:
            node: alg.AlgebraNode = alg.Project(pattern, None)
        else:
            variables = [item.var or item.alias or item.aggregate.alias
                         for item in items]
            node = alg.Project(pattern, variables)
        if distinct:
            node = alg.Distinct(node)

        if self.at_keyword("ORDER"):
            self.next()
            self.expect("KEYWORD", "BY")
            keys = []
            while True:
                if self.at_keyword("ASC", "DESC"):
                    direction = self.next().value.lower()
                    self.expect("PUNCT", "(")
                    var = self.expect("VAR").value
                    self.expect("PUNCT", ")")
                    keys.append((var, direction))
                elif self.peek().kind == "VAR":
                    keys.append((self.next().value, "asc"))
                else:
                    break
            if not keys:
                raise ParseError("ORDER BY requires at least one key", self.peek())
            node = alg.OrderBy(node, keys)

        limit: Optional[int] = None
        offset = 0
        while self.at_keyword("LIMIT", "OFFSET"):
            keyword = self.next().value
            number = int(self.expect("NUMBER").value)
            if keyword == "LIMIT":
                limit = number
            else:
                offset = number
        if limit is not None or offset:
            node = alg.Slice(node, limit, offset)
        return node

    def _parse_select_items(self) -> Tuple[List[_SelectItem], bool]:
        if self.accept("OP", "*"):
            return [], True
        items: List[_SelectItem] = []
        while True:
            token = self.peek()
            if token.kind == "VAR":
                items.append(_SelectItem(var=self.next().value.lstrip("?$")))
            elif token.kind == "PUNCT" and token.value == "(":
                self.next()
                aggregates: List[alg.Aggregate] = []
                expression = self._parse_expression(collect_aggregates=aggregates)
                self.expect("KEYWORD", "AS")
                alias = self.expect("VAR").value.lstrip("?$")
                self.expect("PUNCT", ")")
                if (len(aggregates) == 1 and isinstance(expression, VarExpr)
                        and expression.name == aggregates[0].alias):
                    # Plain (AGG(...) AS ?alias): rename the aggregate itself.
                    aggregates[0].alias = alias
                    items.append(_SelectItem(aggregate=aggregates[0]))
                elif aggregates:
                    raise ParseError("complex aggregate expressions in SELECT "
                                     "are not supported", token)
                else:
                    items.append(_SelectItem(expression=expression, alias=alias))
            elif (token.kind == "KEYWORD" and token.value in _AGG_KEYWORDS):
                # Bare COUNT(?x) as ?alias is invalid SPARQL; require parens form.
                raise ParseError("aggregates must be written as "
                                 "(AGG(...) AS ?alias)", token)
            else:
                break
        if not items:
            raise ParseError("empty SELECT clause", self.peek())
        return items, False

    # ------------------------------------------------------------------
    # Group graph pattern
    # ------------------------------------------------------------------
    def _parse_group_graph_pattern(self, optional: bool = False):
        """A group graph pattern.  With ``optional`` (the group of an
        ``OPTIONAL``), returns ``(pattern, condition)``: the group's
        top-level FILTERs are conjoined into the LeftJoin condition
        (``None`` when there are none) instead of wrapping the pattern.
        FILTER (NOT) EXISTS still wraps it, and a nested SELECT keeps its
        filters inside."""
        self.expect("PUNCT", "{")
        if self.at_keyword("SELECT"):
            node = self._parse_select_query()
            self.expect("PUNCT", "}")
            return (node, None) if optional else node

        current: Optional[alg.AlgebraNode] = None
        triples: List = []
        filters: List[Expression] = []
        exists_filters: List[Tuple[alg.AlgebraNode, bool]] = []

        def flush_triples():
            nonlocal current, triples
            if triples:
                bgp = alg.BGP(triples)
                current = self._join(current, bgp)
                triples = []

        while True:
            token = self.peek()
            if token.kind == "PUNCT" and token.value == "}":
                self.next()
                break
            if token.kind == "EOF":
                raise ParseError("unterminated group pattern", token)
            if self.at_keyword("FILTER"):
                self.next()
                if self.at_keyword("EXISTS"):
                    self.next()
                    exists_filters.append((self._parse_group_graph_pattern(),
                                           False))
                elif (self.at_keyword("NOT")
                        and self.peek(1).kind == "KEYWORD"
                        and self.peek(1).value == "EXISTS"):
                    self.next()
                    self.next()
                    exists_filters.append((self._parse_group_graph_pattern(),
                                           True))
                else:
                    filters.append(self._parse_constraint())
                self.accept("PUNCT", ".")
            elif self.at_keyword("OPTIONAL"):
                self.next()
                right, condition = self._parse_group_graph_pattern(
                    optional=True)
                flush_triples()
                current = alg.LeftJoin(current or alg.BGP([]), right,
                                       condition)
                self.accept("PUNCT", ".")
            elif self.at_keyword("GRAPH"):
                self.next()
                iri = self.expect("IRI").value[1:-1]
                inner = self._parse_group_graph_pattern()
                flush_triples()
                current = self._join(current, alg.GraphPattern(iri, inner))
                self.accept("PUNCT", ".")
            elif self.at_keyword("BIND"):
                self.next()
                self.expect("PUNCT", "(")
                expression = self._parse_expression()
                self.expect("KEYWORD", "AS")
                var = self.expect("VAR")
                self.expect("PUNCT", ")")
                flush_triples()
                _check_fresh(var.value, current.in_scope() if current else (),
                             var)
                current = alg.Extend(current or alg.BGP([]), var.value,
                                     expression)
                self.accept("PUNCT", ".")
            elif self.at_keyword("MINUS"):
                self.next()
                right = self._parse_group_graph_pattern()
                flush_triples()
                current = alg.Minus(current or alg.BGP([]), right)
                self.accept("PUNCT", ".")
            elif self.at_keyword("VALUES"):
                self.next()
                inline = self._parse_inline_data()
                flush_triples()
                current = self._join(current, inline)
                self.accept("PUNCT", ".")
            elif token.kind == "PUNCT" and token.value == "{":
                sub = self._parse_group_or_union()
                flush_triples()
                current = self._join(current, sub)
                self.accept("PUNCT", ".")
            else:
                self._parse_triples_block(triples)

        flush_triples()
        node = current if current is not None else alg.BGP([])
        if not optional:
            for condition in filters:
                node = alg.Filter(condition, node)
        for group, negated in exists_filters:
            node = alg.FilterExists(node, group, negated)
        if optional:
            return node, reduce(AndExpr, filters) if filters else None
        return node

    def _parse_inline_data(self) -> alg.InlineData:
        """VALUES ?x { v1 v2 }  or  VALUES (?x ?y) { (v1 v2) (UNDEF v3) }"""
        variables: List[str] = []
        if self.peek().kind == "VAR":
            variables.append(self.next().value)
            single = True
        else:
            self.expect("PUNCT", "(")
            while self.peek().kind == "VAR":
                variables.append(self.next().value)
            self.expect("PUNCT", ")")
            single = False
        if not variables:
            raise ParseError("VALUES requires at least one variable",
                             self.peek())
        self.expect("PUNCT", "{")
        rows = []
        while not (self.peek().kind == "PUNCT" and self.peek().value == "}"):
            if single:
                rows.append((self._parse_values_term(),))
            else:
                self.expect("PUNCT", "(")
                row = []
                while not (self.peek().kind == "PUNCT"
                           and self.peek().value == ")"):
                    row.append(self._parse_values_term())
                self.expect("PUNCT", ")")
                if len(row) != len(variables):
                    raise ParseError("VALUES row arity mismatch", self.peek())
                rows.append(tuple(row))
        self.expect("PUNCT", "}")
        return alg.InlineData(variables, rows)

    def _parse_values_term(self):
        if self.at_keyword("UNDEF"):
            self.next()
            return None
        return self._parse_term(position="VALUES")

    def _parse_group_or_union(self) -> alg.AlgebraNode:
        node = self._parse_group_graph_pattern()
        while self.at_keyword("UNION"):
            self.next()
            right = self._parse_group_graph_pattern()
            node = alg.Union(node, right)
        return node

    @staticmethod
    def _join(left: Optional[alg.AlgebraNode],
              right: alg.AlgebraNode) -> alg.AlgebraNode:
        if left is None:
            return right
        # Merge adjacent BGPs so the optimizer sees one flat scope.
        if isinstance(left, alg.BGP) and isinstance(right, alg.BGP):
            return alg.BGP(left.triples + right.triples)
        return alg.Join(left, right)

    # ------------------------------------------------------------------
    # Triples
    # ------------------------------------------------------------------
    def _parse_triples_block(self, triples: List):
        subject = self._parse_term(position="subject")
        while True:
            predicate = self._parse_verb()
            while True:
                obj = self._parse_term(position="object")
                triples.append((subject, predicate, obj))
                if not self.accept("PUNCT", ","):
                    break
            if not self.accept("PUNCT", ";"):
                break
            # A dangling ';' before '.' or '}' is permitted.
            token = self.peek()
            if token.kind == "PUNCT" and token.value in (".", "}"):
                break
        self.accept("PUNCT", ".")

    def _parse_verb(self):
        if self.at_keyword("A"):
            self.next()
            return RDF.type
        return self._parse_term(position="predicate")

    def _parse_term(self, position: str):
        token = self.peek()
        if token.kind == "VAR":
            return Variable(self.next().value)
        if token.kind == "IRI":
            return URIRef(self.next().value[1:-1])
        if token.kind == "PNAME":
            return self._resolve_pname(self.next().value)
        if token.kind == "STRING":
            return self._parse_string_literal()
        if token.kind == "NUMBER":
            text = self.next().value
            if "." in text or "e" in text or "E" in text:
                return Literal(text, datatype=XSD_DOUBLE)
            return Literal(text, datatype=XSD_INTEGER)
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            self.next()
            return Literal(token.value == "TRUE")
        raise ParseError("expected a term in %s position" % position, token)

    def _parse_string_literal(self) -> Literal:
        raw = self.expect("STRING").value
        if raw.startswith('"""'):
            text = raw[3:-3]
        else:
            text = raw[1:-1]
        # Single-pass unescape: sequential str.replace corrupts adjacent
        # sequences (r"\\n" — escaped backslash, then 'n' — would first
        # match the inner r"\n" and turn into backslash+newline).
        text = _STRING_ESCAPE.sub(
            lambda m: _STRING_ESCAPES.get(m.group(1), m.group(0)), text)
        datatype = None
        language = None
        if self.accept("DTYPE"):
            dt_token = self.peek()
            if dt_token.kind == "IRI":
                datatype = self.next().value[1:-1]
            elif dt_token.kind == "PNAME":
                datatype = str(self._resolve_pname(self.next().value))
            else:
                raise ParseError("expected datatype after ^^", dt_token)
        elif self.peek().kind == "LANGTAG":
            language = self.next().value[1:]
        return Literal(text, datatype=datatype, language=language)

    def _resolve_pname(self, pname: str) -> URIRef:
        prefix, _, local = pname.partition(":")
        if prefix not in self.prefixes:
            raise ParseError("unknown prefix %r" % prefix,
                             self.tokens[self.pos - 1])
        return URIRef(self.prefixes[prefix] + local)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _parse_constraint(self, collect_aggregates=None) -> Expression:
        """FILTER/HAVING constraint: bracketted expression or function call."""
        token = self.peek()
        if token.kind == "PUNCT" and token.value == "(":
            self.next()
            expression = self._parse_expression(collect_aggregates)
            self.expect("PUNCT", ")")
            return expression
        if token.kind in ("NAME", "PNAME") or (
                token.kind == "KEYWORD" and token.value in _AGG_KEYWORDS):
            return self._parse_primary(collect_aggregates)
        raise ParseError("expected constraint", token)

    def _parse_expression(self, collect_aggregates=None) -> Expression:
        return self._parse_or(collect_aggregates)

    def _parse_or(self, aggs) -> Expression:
        node = self._parse_and(aggs)
        while self.accept("OP", "||"):
            node = OrExpr(node, self._parse_and(aggs))
        return node

    def _parse_and(self, aggs) -> Expression:
        node = self._parse_relational(aggs)
        while self.accept("OP", "&&"):
            node = AndExpr(node, self._parse_relational(aggs))
        return node

    def _parse_relational(self, aggs) -> Expression:
        node = self._parse_additive(aggs)
        token = self.peek()
        if token.kind == "OP" and token.value in ("=", "!=", "<", "<=", ">", ">="):
            op = self.next().value
            right = self._parse_additive(aggs)
            return CompareExpr(op, node, right)
        if self.at_keyword("IN"):
            self.next()
            return InExpr(node, self._parse_expression_list(aggs))
        if self.at_keyword("NOT"):
            self.next()
            self.expect("KEYWORD", "IN")
            return InExpr(node, self._parse_expression_list(aggs), negated=True)
        return node

    def _parse_expression_list(self, aggs) -> List[Expression]:
        self.expect("PUNCT", "(")
        options = []
        if not (self.peek().kind == "PUNCT" and self.peek().value == ")"):
            options.append(self._parse_expression(aggs))
            while self.accept("PUNCT", ","):
                options.append(self._parse_expression(aggs))
        self.expect("PUNCT", ")")
        return options

    def _parse_additive(self, aggs) -> Expression:
        node = self._parse_multiplicative(aggs)
        while True:
            token = self.peek()
            if token.kind == "OP" and token.value in ("+", "-"):
                op = self.next().value
                node = ArithmeticExpr(op, node, self._parse_multiplicative(aggs))
            else:
                return node

    def _parse_multiplicative(self, aggs) -> Expression:
        node = self._parse_unary(aggs)
        while True:
            token = self.peek()
            if token.kind == "OP" and token.value in ("*", "/"):
                op = self.next().value
                node = ArithmeticExpr(op, node, self._parse_unary(aggs))
            else:
                return node

    def _parse_unary(self, aggs) -> Expression:
        token = self.peek()
        if token.kind == "OP" and token.value == "!":
            self.next()
            return NotExpr(self._parse_unary(aggs))
        if token.kind == "OP" and token.value == "-":
            self.next()
            return UnaryMinusExpr(self._parse_unary(aggs))
        if token.kind == "OP" and token.value == "+":
            self.next()
            return self._parse_unary(aggs)
        return self._parse_primary(aggs)

    def _parse_primary(self, aggs) -> Expression:
        token = self.peek()
        if token.kind == "PUNCT" and token.value == "(":
            self.next()
            node = self._parse_expression(aggs)
            self.expect("PUNCT", ")")
            return node
        if token.kind == "VAR":
            return VarExpr(self.next().value)
        if token.kind == "KEYWORD" and token.value in _AGG_KEYWORDS:
            return self._parse_aggregate_call(aggs)
        if token.kind == "NAME":
            name = token.value
            if name.lower() in _BUILTIN_FUNCTIONS:
                self.next()
                args = self._parse_expression_list(aggs)
                return FunctionExpr(name.lower(), args)
            raise ParseError("unknown function %r" % name, token)
        if token.kind == "PNAME":
            # Either an xsd:* cast call or a constant prefixed name.
            pname = token.value
            if (self.peek(1).kind == "PUNCT" and self.peek(1).value == "("
                    and pname.lower().startswith("xsd:")):
                self.next()
                args = self._parse_expression_list(aggs)
                return FunctionExpr(pname.lower(), args)
            self.next()
            return ConstExpr(self._resolve_pname(pname))
        if token.kind == "IRI":
            return ConstExpr(URIRef(self.next().value[1:-1]))
        if token.kind == "STRING":
            return ConstExpr(self._parse_string_literal())
        if token.kind == "NUMBER":
            return ConstExpr(self._parse_term(position="expression"))
        if token.kind == "KEYWORD" and token.value in ("TRUE", "FALSE"):
            self.next()
            return ConstExpr(Literal(token.value == "TRUE"))
        raise ParseError("expected expression", token)

    def _parse_aggregate_call(self, aggs) -> Expression:
        """Parse ``COUNT([DISTINCT] expr|*)`` inside SELECT or HAVING.

        The aggregate is appended to ``aggs`` (synthesizing an alias) and a
        variable reference to that alias is returned, so the surrounding
        expression evaluates against pre-computed per-group values.
        ``GROUP_CONCAT`` additionally accepts the standard
        ``; SEPARATOR="..."`` modifier.
        """
        token = self.next()
        function = token.value.lower()
        if aggs is None:
            raise ParseError("aggregate %s not allowed here" % token.value, token)
        self.expect("PUNCT", "(")
        distinct = bool(self.accept("KEYWORD", "DISTINCT"))
        if self.accept("OP", "*"):
            expression = None
        else:
            expression = self._parse_expression()
        separator = None
        if self.accept("PUNCT", ";"):
            word = self.next()
            if not (word.kind == "NAME" and word.value.upper() == "SEPARATOR"):
                raise ParseError("expected SEPARATOR", word)
            if function != "group_concat":
                raise ParseError("SEPARATOR only applies to GROUP_CONCAT",
                                 word)
            self.expect("OP", "=")
            if self.peek().kind != "STRING":
                raise ParseError("SEPARATOR expects a string literal",
                                 self.peek())
            separator = self._parse_string_literal().lexical
        self.expect("PUNCT", ")")
        self._synthetic_counter += 1
        alias = "__agg_%d" % self._synthetic_counter
        aggregate = alg.Aggregate(function, expression, alias, distinct,
                                  separator=separator)
        aggs.append(aggregate)
        return VarExpr(alias)


def parse(text: str) -> alg.Query:
    """Parse a SPARQL SELECT query into an algebra :class:`~.algebra.Query`."""
    return Parser(text).parse_query()
