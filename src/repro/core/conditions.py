"""The filter-condition mini-language of the RDFFrames API.

``D.filter({'country': ['=dbpr:United_States'], 'movie_count': ['>=50']})``
passes per-column condition strings.  This module turns one
``(column, condition)`` pair into a SPARQL expression string:

* comparison shorthand — ``'>=50'`` -> ``?movie_count >= 50``;
  ``'=dbpr:United_States'`` -> ``?country = dbpr:United_States``,
* boolean predicate names — ``'isURI'`` -> ``isIRI(?col)`` (also
  ``isIRI``, ``isLiteral``, ``isBlank``, ``bound``),
* membership — ``'In(dblprc:vldb, dblprc:sigmod)'`` -> ``?conference IN (...)``,
* anything containing ``?`` is treated as a raw SPARQL expression and
  passed through verbatim (e.g. ``regex(str(?actor_country), "USA")``).
"""

from __future__ import annotations

import re
from typing import Tuple

from ..rdf.terms import Literal

_COMPARISON_RE = re.compile(r"^(>=|<=|!=|=|>|<)\s*(.+)$", re.DOTALL)
_IN_RE = re.compile(r"^(?:In|IN|in)\s*\((.*)\)$", re.DOTALL)
_FUNCTION_NAMES = {
    "isuri": "isIRI",
    "isiri": "isIRI",
    "isliteral": "isLiteral",
    "isblank": "isBlank",
    "bound": "bound",
    "isnumeric": "isNumeric",
}

# Values in comparisons that need no quoting: numbers, prefixed names,
# <uris>, variables, booleans.
_BARE_VALUE_RE = re.compile(
    r"^(?:-?\d+(?:\.\d+)?|true|false|\?[A-Za-z_]\w*|<[^<>]+>"
    r"|[A-Za-z_][\w-]*:[\w.-]+)$")


class ConditionError(ValueError):
    """Raised for malformed filter condition strings."""


def render_value(value: str) -> str:
    """Render a condition's right-hand side as a SPARQL term."""
    value = value.strip()
    if _BARE_VALUE_RE.match(value):
        return value
    if value.startswith('"') and value.endswith('"'):
        return value
    return Literal(value).n3()


def condition_to_sparql(column: str, condition) -> str:
    """Translate one condition on ``column`` to a SPARQL expression string."""
    if isinstance(condition, (int, float)):
        return "?%s = %s" % (column, condition)
    if not isinstance(condition, str):
        raise ConditionError("condition must be a string or number, got %r"
                             % (condition,))
    text = condition.strip()
    if not text:
        raise ConditionError("empty condition for column %r" % column)

    lowered = text.lower()
    if lowered in _FUNCTION_NAMES:
        return "%s(?%s)" % (_FUNCTION_NAMES[lowered], column)

    match = _IN_RE.match(text)
    if match:
        options = [render_value(part) for part in _split_args(match.group(1))]
        if not options:
            raise ConditionError("empty IN list for column %r" % column)
        return "?%s IN (%s)" % (column, ", ".join(options))

    match = _COMPARISON_RE.match(text)
    if match:
        op, value = match.groups()
        return "?%s %s %s" % (column, op, render_value(value))

    if "?" in text:
        # Raw SPARQL expression; trust the caller.
        return text

    # A bare value means equality (the common '=value' with '=' omitted).
    return "?%s = %s" % (column, render_value(text))


def _split_args(text: str):
    """Split a comma-separated argument list, respecting quotes."""
    parts = []
    depth = 0
    in_string = False
    current = []
    for char in text:
        if char == '"':
            in_string = not in_string
            current.append(char)
        elif in_string:
            current.append(char)
        elif char == "(":
            depth += 1
            current.append(char)
        elif char == ")":
            depth -= 1
            current.append(char)
        elif char == "," and depth == 0:
            part = "".join(current).strip()
            if part:
                parts.append(part)
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        parts.append(tail)
    return parts


def rename_variable(expression: str, old: str, new: str) -> str:
    """Rename ``?old`` to ``?new`` in a SPARQL expression string."""
    return re.sub(r"\?%s\b" % re.escape(old), "?" + new, expression)


def expression_variables(expression: str):
    """All variable names mentioned in a SPARQL expression string."""
    return re.findall(r"\?([A-Za-z_]\w*)", expression)
