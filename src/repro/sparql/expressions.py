"""SPARQL expression AST and evaluation.

Implements the expression fragment the RDFFrames translator emits and the
paper's expert/naive queries use: logical connectives, comparisons
(including ``IN``), arithmetic, and the built-ins ``regex``, ``str``,
``lang``, ``datatype``, ``bound``, ``isIRI``/``isURI``, ``isLiteral``,
``isBlank``, ``year``/``month``/``day``, ``abs``, and the ``xsd:*`` casts.

Evaluation follows SPARQL error semantics: an expression over an unbound
variable or ill-typed operands raises :class:`ExpressionError`; FILTER
treats an error as *false* and EXTEND leaves the target variable unbound.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Sequence

from ..rdf.terms import (Literal, Node, URIRef, BlankNode, Variable,
                         XSD_BOOLEAN, XSD_DATETIME, XSD_STRING)

TRUE = Literal(True)
FALSE = Literal(False)

#: The year (negative before year 1, more than four digits after 9999),
#: month and day that start an ``xsd:date`` / ``xsd:dateTime`` lexical.
_DATE_PARTS = re.compile(r"^(-?\d{4,})-(\d{2})-(\d{2})")


class ExpressionError(Exception):
    """SPARQL expression evaluation error (type error / unbound variable)."""


class Expression:
    """Base class for all expression AST nodes."""

    def evaluate(self, mapping) -> Any:
        """Evaluate against a solution mapping; returns an RDF term or a
        Python value; raises :class:`ExpressionError` on SPARQL 'error'."""
        raise NotImplementedError

    def variables(self) -> List[str]:
        """Variable names mentioned anywhere in the expression."""
        return []

    def sparql(self) -> str:
        """Render back to SPARQL surface syntax."""
        raise NotImplementedError

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.sparql())


class VarExpr(Expression):
    """A variable reference, e.g. ``?movie_count``."""

    def __init__(self, name: str):
        self.name = name.lstrip("?$")

    def evaluate(self, mapping):
        try:
            return mapping[self.name]
        except KeyError:
            raise ExpressionError("unbound variable ?%s" % self.name)

    def variables(self):
        return [self.name]

    def sparql(self):
        return "?" + self.name


class ConstExpr(Expression):
    """A constant RDF term (literal or URI)."""

    def __init__(self, term: Node):
        self.term = term

    def evaluate(self, mapping):
        return self.term

    def sparql(self):
        """A literal's shorthand (``1``, ``2.5``, ``true``) when it has
        one, else the full form: the text is part of plan and outcome
        keys, so two different constants must never render alike."""
        term = self.term
        if isinstance(term, Literal):
            return term.shorthand() or term.n3()
        return term.n3()


class AndExpr(Expression):
    def __init__(self, left: Expression, right: Expression):
        self.left, self.right = left, right

    def evaluate(self, mapping):
        # SPARQL logical-and with error tolerance: F && err = F.
        try:
            lhs = ebv(self.left.evaluate(mapping))
        except ExpressionError:
            lhs = None
        try:
            rhs = ebv(self.right.evaluate(mapping))
        except ExpressionError:
            rhs = None
        if lhs is False or rhs is False:
            return FALSE
        if lhs is None or rhs is None:
            raise ExpressionError("error in && operand")
        return TRUE

    def variables(self):
        return self.left.variables() + self.right.variables()

    def sparql(self):
        return "( %s && %s )" % (self.left.sparql(), self.right.sparql())


class OrExpr(Expression):
    def __init__(self, left: Expression, right: Expression):
        self.left, self.right = left, right

    def evaluate(self, mapping):
        try:
            lhs = ebv(self.left.evaluate(mapping))
        except ExpressionError:
            lhs = None
        try:
            rhs = ebv(self.right.evaluate(mapping))
        except ExpressionError:
            rhs = None
        if lhs is True or rhs is True:
            return TRUE
        if lhs is None or rhs is None:
            raise ExpressionError("error in || operand")
        return FALSE

    def variables(self):
        return self.left.variables() + self.right.variables()

    def sparql(self):
        return "( %s || %s )" % (self.left.sparql(), self.right.sparql())


class NotExpr(Expression):
    def __init__(self, operand: Expression):
        self.operand = operand

    def evaluate(self, mapping):
        return FALSE if ebv(self.operand.evaluate(mapping)) else TRUE

    def variables(self):
        return self.operand.variables()

    def sparql(self):
        return "( ! %s )" % self.operand.sparql()


_COMPARE_OPS = ("=", "!=", "<", "<=", ">", ">=")


class CompareExpr(Expression):
    """Binary comparison with SPARQL value semantics."""

    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in _COMPARE_OPS:
            raise ValueError("unknown comparison operator %r" % op)
        self.op, self.left, self.right = op, left, right

    def evaluate(self, mapping):
        lhs = self.left.evaluate(mapping)
        rhs = self.right.evaluate(mapping)
        result = _compare(self.op, lhs, rhs)
        return TRUE if result else FALSE

    def variables(self):
        return self.left.variables() + self.right.variables()

    def sparql(self):
        return "( %s %s %s )" % (self.left.sparql(), self.op, self.right.sparql())


class InExpr(Expression):
    """``?x IN (a, b, c)`` / ``?x NOT IN (...)``."""

    def __init__(self, operand: Expression, options: Sequence[Expression],
                 negated: bool = False):
        self.operand = operand
        self.options = list(options)
        self.negated = negated

    def evaluate(self, mapping):
        value = self.operand.evaluate(mapping)
        found = False
        for option in self.options:
            try:
                if _compare("=", value, option.evaluate(mapping)):
                    found = True
                    break
            except ExpressionError:
                continue
        if self.negated:
            found = not found
        return TRUE if found else FALSE

    def variables(self):
        out = self.operand.variables()
        for option in self.options:
            out.extend(option.variables())
        return out

    def sparql(self):
        keyword = "NOT IN" if self.negated else "IN"
        return "( %s %s (%s) )" % (
            self.operand.sparql(), keyword,
            ", ".join(o.sparql() for o in self.options))


class ArithmeticExpr(Expression):
    def __init__(self, op: str, left: Expression, right: Expression):
        if op not in ("+", "-", "*", "/"):
            raise ValueError("unknown arithmetic operator %r" % op)
        self.op, self.left, self.right = op, left, right

    def evaluate(self, mapping):
        lhs = _numeric(self.left.evaluate(mapping))
        rhs = _numeric(self.right.evaluate(mapping))
        try:
            if self.op == "+":
                value = lhs + rhs
            elif self.op == "-":
                value = lhs - rhs
            elif self.op == "*":
                value = lhs * rhs
            else:
                value = lhs / rhs
        except ZeroDivisionError:
            raise ExpressionError("division by zero")
        return Literal(value)

    def variables(self):
        return self.left.variables() + self.right.variables()

    def sparql(self):
        return "( %s %s %s )" % (self.left.sparql(), self.op, self.right.sparql())


class UnaryMinusExpr(Expression):
    def __init__(self, operand: Expression):
        self.operand = operand

    def evaluate(self, mapping):
        return Literal(-_numeric(self.operand.evaluate(mapping)))

    def variables(self):
        return self.operand.variables()

    def sparql(self):
        return "( - %s )" % self.operand.sparql()


class FunctionExpr(Expression):
    """A built-in function call (or ``xsd:*`` cast)."""

    def __init__(self, name: str, args: Sequence[Expression]):
        self.name = name.lower()
        self.args = list(args)

    def evaluate(self, mapping):
        name = self.name
        if name == "bound":
            arg = self.args[0]
            if not isinstance(arg, VarExpr):
                raise ExpressionError("BOUND requires a variable")
            return TRUE if arg.name in mapping else FALSE
        values = [arg.evaluate(mapping) for arg in self.args]
        return _apply_function(name, values)

    def variables(self):
        out = []
        for arg in self.args:
            out.extend(arg.variables())
        return out

    def sparql(self):
        display = {"isiri": "isIRI", "isuri": "isURI",
                   "isliteral": "isLiteral", "isblank": "isBlank",
                   "xsd:datetime": "xsd:dateTime"}.get(self.name, self.name)
        return "%s(%s)" % (display, ", ".join(a.sparql() for a in self.args))


# ----------------------------------------------------------------------
# Value semantics
# ----------------------------------------------------------------------

def ebv(value) -> bool:
    """SPARQL effective boolean value."""
    if isinstance(value, Literal):
        if value.datatype == XSD_BOOLEAN:
            return bool(value.value)
        if value.is_numeric:
            return value.value != 0
        if value.datatype in (None, XSD_STRING) and value.language is None:
            return len(value.lexical) > 0
        if value.language is not None:
            return len(value.lexical) > 0
        raise ExpressionError("no boolean value for %r" % (value,))
    if isinstance(value, bool):
        return value
    raise ExpressionError("no boolean value for %r" % (value,))


def _numeric(value):
    if isinstance(value, Literal) and value.is_numeric:
        return value.value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    raise ExpressionError("not a number: %r" % (value,))


def _compare(op: str, lhs, rhs) -> bool:
    """Compare two RDF terms with SPARQL operator mapping."""
    if lhs is None or rhs is None:
        raise ExpressionError("comparison with unbound value")
    # URIs: only = and != are defined.
    if isinstance(lhs, URIRef) or isinstance(rhs, URIRef):
        if op == "=":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        raise ExpressionError("ordering undefined for URIs")
    if isinstance(lhs, BlankNode) or isinstance(rhs, BlankNode):
        if op == "=":
            return lhs == rhs
        if op == "!=":
            return lhs != rhs
        raise ExpressionError("ordering undefined for blank nodes")
    lv = lhs.value if isinstance(lhs, Literal) else lhs
    rv = rhs.value if isinstance(rhs, Literal) else rhs
    l_num = isinstance(lv, (int, float)) and not isinstance(lv, bool)
    r_num = isinstance(rv, (int, float)) and not isinstance(rv, bool)
    if l_num != r_num:
        # Mixed numeric/string comparison is a type error in SPARQL.
        if op == "!=":
            return True
        if op == "=":
            return False
        raise ExpressionError("type error comparing %r and %r" % (lhs, rhs))
    if not l_num:
        if (op in ("=", "!=") and isinstance(lhs, Literal)
                and isinstance(rhs, Literal)
                and lhs.language != rhs.language):
            # Literals with different language tags (or one tag and none)
            # are different terms, whatever their lexical forms.  Numbers
            # never carry a tag.
            return op == "!="
        lv, rv = str(lv), str(rv)
    if op == "=":
        return lv == rv
    if op == "!=":
        return lv != rv
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    return lv >= rv


def _apply_function(name: str, values: List[Any]):
    if name == "str":
        value = values[0]
        if isinstance(value, URIRef):
            return Literal(str(value))
        if isinstance(value, Literal):
            return Literal(value.lexical)
        raise ExpressionError("STR undefined for %r" % (value,))
    if name == "lang":
        value = values[0]
        if isinstance(value, Literal):
            return Literal(value.language or "")
        raise ExpressionError("LANG requires a literal")
    if name == "datatype":
        value = values[0]
        if isinstance(value, Literal):
            return URIRef(value.datatype or XSD_STRING)
        raise ExpressionError("DATATYPE requires a literal")
    if name in ("isiri", "isuri"):
        return TRUE if isinstance(values[0], URIRef) else FALSE
    if name == "isliteral":
        return TRUE if isinstance(values[0], Literal) else FALSE
    if name == "isblank":
        return TRUE if isinstance(values[0], BlankNode) else FALSE
    if name == "isnumeric":
        value = values[0]
        return TRUE if isinstance(value, Literal) and value.is_numeric else FALSE
    if name == "regex":
        text = values[0]
        pattern = values[1]
        flags_value = values[2] if len(values) > 2 else None
        if not isinstance(text, Literal) or not isinstance(pattern, Literal):
            raise ExpressionError("REGEX requires literal arguments")
        flags = 0
        if flags_value is not None and "i" in str(flags_value):
            flags |= re.IGNORECASE
        try:
            return TRUE if re.search(pattern.lexical, text.lexical, flags) else FALSE
        except re.error as exc:
            raise ExpressionError("bad regex %r: %s" % (pattern.lexical, exc))
    if name in ("contains", "strstarts", "strends"):
        hay, needle = values[0], values[1]
        if not isinstance(hay, Literal) or not isinstance(needle, Literal):
            raise ExpressionError("%s requires literals" % name.upper())
        h, n = hay.lexical, needle.lexical
        if name == "contains":
            return TRUE if n in h else FALSE
        if name == "strstarts":
            return TRUE if h.startswith(n) else FALSE
        return TRUE if h.endswith(n) else FALSE
    if name in ("ucase", "lcase"):
        value = values[0]
        if not isinstance(value, Literal):
            raise ExpressionError("%s requires a literal" % name.upper())
        text = value.lexical.upper() if name == "ucase" else value.lexical.lower()
        return Literal(text, datatype=value.datatype, language=value.language)
    if name == "strlen":
        value = values[0]
        if not isinstance(value, Literal):
            raise ExpressionError("STRLEN requires a literal")
        return Literal(len(value.lexical))
    if name in ("year", "month", "day"):
        value = values[0]
        if not isinstance(value, Literal):
            raise ExpressionError("%s requires a literal" % name.upper())
        match = _DATE_PARTS.match(value.lexical)
        if match is None:
            raise ExpressionError("cannot extract %s from %r"
                                  % (name, value.lexical))
        return Literal(int(match[("year", "month", "day").index(name) + 1]))
    if name == "abs":
        return Literal(abs(_numeric(values[0])))
    if name in ("ceil", "floor", "round"):
        import math
        number = _numeric(values[0])
        if name == "ceil":
            return Literal(int(math.ceil(number)))
        if name == "floor":
            return Literal(int(math.floor(number)))
        return Literal(int(round(number)))
    if name in ("xsd:datetime", "xsd:date"):
        value = values[0]
        if isinstance(value, Literal):
            return Literal(value.lexical, datatype=XSD_DATETIME)
        raise ExpressionError("cannot cast %r to dateTime" % (value,))
    if name == "xsd:integer":
        value = values[0]
        if isinstance(value, Literal):
            try:
                return Literal(int(float(value.lexical)))
            except ValueError:
                raise ExpressionError("cannot cast %r to integer" % (value,))
        raise ExpressionError("cannot cast %r to integer" % (value,))
    if name in ("xsd:double", "xsd:decimal", "xsd:float"):
        value = values[0]
        if isinstance(value, Literal):
            try:
                return Literal(float(value.lexical))
            except ValueError:
                raise ExpressionError("cannot cast %r to double" % (value,))
        raise ExpressionError("cannot cast %r to double" % (value,))
    if name == "xsd:string":
        return _apply_function("str", values)
    raise ExpressionError("unknown function %r" % name)
