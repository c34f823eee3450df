"""A seeded random SPARQL query generator over the synthetic DBpedia graph.

The differential fuzz suite (``test_fuzz_differential.py``) and the
serving-cache correctness tests draw queries from here: valid
BGP/filter/optional/bind/values/group/order/limit shapes over the
vocabulary that :mod:`repro.data.dbpedia` actually generates, so fuzzed
queries select real rows instead of vacuously-empty results.
:func:`mutate` and :func:`private_copy` (a dataset re-encoded into a new
dictionary, whose expression-outcome store starts cold) serve the
serving and store suites.

Design constraints:

* **PYTHONHASHSEED-independent.**  All randomness flows through a seeded
  ``random.Random`` over *list literals* (never sets or dict views), so
  ``generate(seed)`` returns the same query under any hash seed — a
  failing seed reported by CI reproduces locally, verbatim.
* **Plane-safe shapes.**  ``LIMIT`` without a total order is
  legitimately nondeterministic across execution planes (each may pick a
  different valid k-subset), so the generator only emits ``LIMIT``
  together with ``ORDER BY`` over *every* projected variable (ties are
  then identical rows, making any window bag-identical) and never
  combines ``LIMIT`` with ``OPTIONAL`` (unbound sort keys).
* **Plane-safe aggregates.**  The group clause draws COUNT / SUM / AVG /
  MIN / MAX, with and without DISTINCT, ``COUNT(*)`` and ``?v + 1``
  arguments, 1-3 aggregates over 0-2 keys, and a HAVING over a
  non-COUNT aggregate.  Only integer-kind variables go under SUM / AVG
  (float addition order must not differ between planes); SAMPLE and
  GROUP_CONCAT depend on input order and stay out.
* **BIND and VALUES.**  0-2 ``BIND`` clauses — a variable copy, a constant
  IRI or literal, or ``?v + 1`` over an integer column — and at most one
  ``VALUES`` block over one or two variables (bound pattern variables or
  fresh ones), 1-3 rows, cells drawn from the value pools or ``UNDEF``.
  They are drawn after every other choice, so a seed's core query does
  not depend on them.  ``UNDEF`` is never combined with
  ``LIMIT`` (unbound sort keys, as with ``OPTIONAL``).
* **Function filters.**  0-2 FILTERs over ``isIRI`` / ``isLiteral``,
  ``STR(?x) != "..."``, ``?v + 1 > N`` or two variables (``?a != ?b``),
  reading attribute objects and the OPTIONAL's variable, so expressions
  meet multi-variable and unbound bindings.  Drawn last of all.
* **Shrinkable.**  A failing :class:`QuerySpec` shrinks structurally —
  dropping optionals, binds, VALUES blocks, filters, modifiers,
  aggregates, then patterns, one clause at a time — to a minimal spec
  that still fails, via :func:`shrink`.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional, Tuple

PREFIXES = (
    "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n"
    "PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>\n"
    "PREFIX dbpp: <http://dbpedia.org/property/>\n"
    "PREFIX dbpo: <http://dbpedia.org/ontology/>\n"
    "PREFIX dbpr: <http://dbpedia.org/resource/>\n"
    "PREFIX dcterms: <http://purl.org/dc/terms/>\n"
)

#: Constant pools per filterable value kind (curly-name → SPARQL tokens).
CONSTANTS = {
    "country": ["dbpr:United_States", "dbpr:India", "dbpr:France",
                "dbpr:Japan", "dbpr:Germany"],
    "studio": ["dbpr:Eskay_Movies", "dbpr:Warner_Bros", "dbpr:Paramount",
               "dbpr:Universal", "dbpr:Toho"],
    "subject": ["dbpr:American_films", "dbpr:Indian_films",
                "dbpr:1990s_films", "dbpr:2000s_films"],
    "genre": ["dbpr:Drama", "dbpr:Comedy", "dbpr:Action",
              "dbpr:Thriller"],
    "language": ["dbpr:English", "dbpr:Hindi", "dbpr:French"],
    "sponsor": ["dbpr:AirFly", "dbpr:MegaCola", "dbpr:TechCorp"],
}

#: Per-entity schemas mirroring :mod:`repro.data.dbpedia`:
#: ``(rdf:type class, [(predicate, value-kind, chained-entity)])``.
#: ``value-kind`` names a CONSTANTS pool, or is ``"int"`` / ``"str"`` /
#: ``"uri"`` (unfilterable); ``chained-entity`` says the object is a
#: subject of another schema, so the walk can extend through it.
SCHEMAS = [
    ("film", "dbpo:Film", [
        ("dbpp:starring", "uri", "actor"),
        ("rdfs:label", "str", None),
        ("dcterms:subject", "subject", None),
        ("dbpp:country", "country", None),
        ("dbpo:genre", "genre", None),
        ("dbpp:director", "uri", None),
        ("dbpp:producer", "uri", None),
        ("dbpo:language", "language", None),
        ("dbpp:studio", "studio", None),
        ("dbpo:runtime", "int", None),
    ]),
    ("actor", "dbpo:Actor", [
        ("dbpp:birthPlace", "country", None),
        ("rdfs:label", "str", None),
        ("dbpo:birthDate", "str", None),
    ]),
    ("player", "dbpo:BasketballPlayer", [
        ("dbpp:nationality", "country", None),
        ("dbpp:birthPlace", "country", None),
        ("dbpo:birthDate", "str", None),
        ("dbpp:team", "uri", "team"),
    ]),
    ("team", "dbpo:BasketballTeam", [
        ("dbpp:name", "str", None),
        ("dbpo:sponsor", "sponsor", None),
        ("dbpp:president", "uri", None),
    ]),
    ("athlete", "dbpo:Athlete", [
        ("dbpp:birthPlace", "country", None),
        ("dbpp:team", "uri", "team"),
    ]),
]

_SCHEMA_BY_NAME = {name: (cls, attrs) for name, cls, attrs in SCHEMAS}

#: Constants a ``BIND`` may assign: IRIs and literals.
BIND_CONSTANTS = ["dbpr:France", "dbpr:Drama", '"tag"', "7"]

#: Cells of a ``VALUES`` column over a fresh variable: mixed term kinds.
FRESH_VALUES = ["dbpr:India", "dbpr:Comedy", '"x"', "3"]

#: Cells of a ``VALUES`` column over an integer pattern variable.
INT_VALUES = ["90", "100", "110", "120"]

#: Right-hand sides of ``STR(?x) != ...``: the string forms of pool IRIs
#: (so the filter drops rows) and the empty string.
STR_CONSTANTS = ['"http://dbpedia.org/resource/India"',
                 '"http://dbpedia.org/resource/Drama"', '""']


class QuerySpec:
    """A structured query: triples + filters + modifiers, renderable to
    SPARQL text and shrinkable component-by-component."""

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        #: Required triple patterns: ``(subject, predicate, object)``
        #: tokens (variables start with ``?``).
        self.patterns: List[Tuple[str, str, str]] = []
        #: FILTER clauses: ``(variables-used, expression text)``.
        self.filters: List[Tuple[Tuple[str, ...], str]] = []
        #: OPTIONAL blocks, one triple each.
        self.optionals: List[Tuple[str, str, str]] = []
        #: BIND clauses: ``(target, variable read or None, expression)``.
        self.binds: List[Tuple[str, Optional[str], str]] = []
        #: VALUES blocks: ``(variables, rows of cell tokens)``; a
        #: variable named ``?u...`` is fresh, any other is a pattern's.
        self.values: List[Tuple[Tuple[str, ...],
                                Tuple[Tuple[str, ...], ...]]] = []
        self.distinct = False
        #: ``(keys, aggregates, having)``: 0-2 grouping variables,
        #: ``(variable read or None, "AGG(...)")`` pairs rendered as
        #: ``?a0, ?a1, ...``, and a HAVING ``(variable, text)`` or None.
        self.group: Optional[Tuple[Tuple[str, ...],
                                   Tuple[Tuple[Optional[str], str], ...],
                                   Optional[Tuple[str, str]]]] = None
        #: LIMIT n — rendered with ORDER BY over all projected vars.
        self.limit: Optional[int] = None

    # -- derived structure ---------------------------------------------
    def bound_vars(self) -> List[str]:
        """Variables bound by required patterns, in appearance order."""
        seen: List[str] = []
        for triple in self.patterns:
            for token in triple:
                if token.startswith("?") and token not in seen:
                    seen.append(token)
        return seen

    def optional_vars(self) -> List[str]:
        bound = set(self.bound_vars())
        seen: List[str] = []
        for triple in self.optionals:
            for token in triple:
                if (token.startswith("?") and token not in bound
                        and token not in seen):
                    seen.append(token)
        return seen

    def extra_vars(self) -> List[str]:
        """Variables only BIND targets and fresh VALUES columns bind."""
        extra = [target for target, _var, _text in self.binds]
        for variables, _rows in self.values:
            extra.extend(v for v in variables
                         if _is_fresh(v) and v not in extra)
        return extra

    def projection(self) -> List[str]:
        if self.group is not None:
            keys, aggregates, _having = self.group
            return list(keys) + ["?a%d" % i for i in range(len(aggregates))]
        return self.bound_vars() + self.extra_vars() + self.optional_vars()

    def group_vars(self) -> List[str]:
        """Variables the group clause reads."""
        keys, aggregates, having = self.group
        used = list(keys) + [var for var, _text in aggregates if var]
        return used + [having[0]] if having else used

    # -- rendering -----------------------------------------------------
    def render(self) -> str:
        lines = []
        if self.group is not None:
            keys, aggregates, _having = self.group
            lines.append("SELECT %s" % " ".join(
                list(keys) + ["(%s AS ?a%d)" % (text, i)
                              for i, (_var, text) in enumerate(aggregates)]))
        else:
            head = " ".join(self.projection())
            lines.append("SELECT %s%s"
                         % ("DISTINCT " if self.distinct else "", head))
        lines.append("WHERE {")
        for s, p, o in self.patterns:
            lines.append("  %s %s %s ." % (s, p, o))
        for target, _var, text in self.binds:
            lines.append("  BIND(%s AS %s)" % (text, target))
        for variables, rows in self.values:
            if len(variables) == 1:
                lines.append("  VALUES %s { %s }" % (
                    variables[0], " ".join(row[0] for row in rows)))
            else:
                lines.append("  VALUES (%s) { %s }" % (
                    " ".join(variables),
                    " ".join("(%s)" % " ".join(row) for row in rows)))
        for vars_used, text in self.filters:
            lines.append("  FILTER(%s)" % text)
        for s, p, o in self.optionals:
            lines.append("  OPTIONAL { %s %s %s }" % (s, p, o))
        lines.append("}")
        if self.group is not None:
            keys, _aggregates, having = self.group
            if keys:
                lines.append("GROUP BY %s" % " ".join(keys))
            if having:
                lines.append("HAVING (%s)" % having[1])
        if self.limit is not None:
            # Total order over the projection: ties are identical rows,
            # so every plane's LIMIT window holds the same bag.
            lines.append("ORDER BY %s" % " ".join(self.projection()))
            lines.append("LIMIT %d" % self.limit)
        return PREFIXES + "\n".join(lines)

    def __repr__(self):
        return ("QuerySpec(seed=%r, %d patterns, %d filters, %d optionals, "
                "%d binds, %d values)" % (
                    self.seed, len(self.patterns), len(self.filters),
                    len(self.optionals), len(self.binds), len(self.values)))


def _is_fresh(var: str) -> bool:
    return var.startswith("?u")


def _make_filter(rng: random.Random, var: str, kind: str) -> Optional[str]:
    if kind == "int":
        bound = 70 + 10 * rng.randrange(10)
        return rng.choice(["%s >= %d", "%s < %d"]) % (var, bound)
    pool = CONSTANTS.get(kind)
    if not pool:
        return None
    shape = rng.randrange(3)
    if shape == 0:
        return "%s != %s" % (var, rng.choice(pool))
    if shape == 1:
        return "%s IN (%s)" % (var, rng.choice(pool))
    picks = rng.sample(pool, 2)
    return "%s IN (%s, %s)" % (var, picks[0], picks[1])


def _make_function_filter(rng: random.Random, variables: List[str],
                          ints: List[str]) -> Tuple[Tuple[str, ...], str]:
    """One FILTER over a built-in function or two variables, any of which
    may be an OPTIONAL's (so unbound): ``isIRI`` / ``isLiteral``,
    ``STR(?x) != "..."``, ``?v + 1 > N`` over an integer column, or
    ``?a != ?b``."""
    var = variables[rng.randrange(len(variables))]
    shape = rng.randrange(4)
    if shape == 1:
        return (var,), "STR(%s) != %s" % (
            var, STR_CONSTANTS[rng.randrange(len(STR_CONSTANTS))])
    if shape == 2 and ints:
        var = ints[rng.randrange(len(ints))]
        return (var,), "%s + 1 > %d" % (var, 70 + 10 * rng.randrange(10))
    if shape == 3 and len(variables) > 1:
        first, second = rng.sample(variables, 2)
        return (first, second), "%s != %s" % (first, second)
    return (var,), "%s(%s)" % (["isIRI", "isLiteral"][rng.randrange(2)], var)


def _make_aggregate(rng: random.Random, variables: List[str],
                    ints: List[str]) -> Tuple[Optional[str], str]:
    """One ``(variable read, "AGG(...)")`` pair."""
    function = ["COUNT", "COUNT", "SUM", "AVG", "MIN", "MAX"][
        rng.randrange(6)]
    if function in ("SUM", "AVG") and not ints:
        function = "MIN" if function == "SUM" else "MAX"
    if function == "COUNT" and rng.random() < 0.25:
        return None, "COUNT(*)"
    numeric = function in ("SUM", "AVG") or (ints and rng.random() < 0.5)
    pool = ints if numeric else variables
    var = pool[rng.randrange(len(pool))]
    distinct = "DISTINCT " if rng.random() < 0.3 else ""
    arg = var + " + 1" if var in ints and rng.random() < 0.4 else var
    return var, "%s(%s%s)" % (function, distinct, arg)


def _make_having(rng: random.Random, variables: List[str],
                 ints: List[str]) -> Tuple[str, str]:
    """A HAVING over a non-COUNT aggregate."""
    if ints and rng.random() < 0.7:
        var = ints[rng.randrange(len(ints))]
        function = ["SUM", "AVG", "MIN", "MAX"][rng.randrange(4)]
        return var, "%s(%s) %s %d" % (function, var,
                                      rng.choice([">=", "<"]),
                                      90 + 20 * rng.randrange(4))
    var = variables[rng.randrange(len(variables))]
    return var, "MIN(%s) != MAX(%s)" % (var, var)


def _make_group(rng: random.Random, subject: str,
                vars_by_kind: List[Tuple[str, str]]):
    """A group clause: 0-2 keys, 1-3 aggregates, maybe a HAVING."""
    value_vars = [v for v, _k in vars_by_kind]
    ints = [v for v, k in vars_by_kind if k == "int"]
    keys = tuple(rng.sample(value_vars,
                            rng.randint(0, min(2, len(value_vars)))))
    variables = [subject] + value_vars
    aggregates = tuple(_make_aggregate(rng, variables, ints)
                       for _ in range(rng.randint(1, 3)))
    having = _make_having(rng, value_vars, ints) \
        if rng.random() < (0.5 if ints else 0.3) else None
    return keys, aggregates, having


def _make_bind(rng: random.Random, index: int, variables: List[str],
               ints: List[str]) -> Tuple[str, Optional[str], str]:
    """One BIND: a variable copy, a constant, or ``?v + 1``."""
    target = "?b%d" % index
    shape = rng.randrange(3)
    if shape == 2 and ints:
        var = ints[rng.randrange(len(ints))]
        return target, var, "%s + 1" % var
    if shape == 1:
        return target, None, BIND_CONSTANTS[rng.randrange(
            len(BIND_CONSTANTS))]
    var = variables[rng.randrange(len(variables))]
    return target, var, var


def _make_values(rng: random.Random, vars_by_kind: List[Tuple[str, str]],
                 allow_undef: bool):
    """One VALUES block over 1-2 variables, 1-3 rows."""
    candidates = [(v, k) for v, k in vars_by_kind
                  if k in CONSTANTS or k == "int"]
    columns: List[Tuple[str, List[str]]] = []
    for i in range(rng.randint(1, 2)):
        if candidates and rng.random() < 0.6:
            var, kind = candidates.pop(rng.randrange(len(candidates)))
            pool = INT_VALUES if kind == "int" else CONSTANTS[kind]
        else:
            var, pool = "?u%d" % i, FRESH_VALUES
        columns.append((var, pool))
    rows = []
    for _ in range(rng.randint(1, 3)):
        rows.append(tuple(
            "UNDEF" if allow_undef and rng.random() < 0.25
            else pool[rng.randrange(len(pool))]
            for _var, pool in columns))
    return tuple(var for var, _pool in columns), tuple(rows)


def generate(seed: int) -> QuerySpec:
    """Deterministically generate one valid query spec from ``seed``."""
    rng = random.Random(seed)
    spec = QuerySpec(seed)
    name, cls, attrs = SCHEMAS[rng.randrange(len(SCHEMAS))]
    subject = "?" + name
    spec.patterns.append((subject, "rdf:type", cls))

    picked = rng.sample(attrs, rng.randint(1, min(3, len(attrs))))
    vars_by_kind: List[Tuple[str, str]] = []  # (var, kind) filter pool
    counter = 0
    chained: Optional[Tuple[str, str]] = None  # (var, entity)
    for pred, kind, chain in picked:
        if chain is not None:
            var = "?" + chain
            chained = (var, chain)
        else:
            var = "?v%d" % counter
            counter += 1
        spec.patterns.append((subject, pred, var))
        vars_by_kind.append((var, kind))

    # Walk through a chained entity (film→actor, player/athlete→team).
    if chained is not None and rng.random() < 0.6:
        var, entity = chained
        _cls, sub_attrs = _SCHEMA_BY_NAME[entity]
        for pred, kind, _chain in rng.sample(sub_attrs,
                                             rng.randint(1, 2)):
            sub_var = "?w%d" % counter
            counter += 1
            spec.patterns.append((var, pred, sub_var))
            vars_by_kind.append((sub_var, kind))

    # Filters on filterable bound values.
    for var, kind in vars_by_kind:
        if kind in ("uri",):
            continue
        if rng.random() < 0.3:
            text = _make_filter(rng, var, kind)
            if text is not None:
                spec.filters.append(((var,), text))

    # One OPTIONAL over an attribute the walk did not use.
    used = {p for _s, p, _o in spec.patterns}
    unused = [a for a in attrs if a[0] not in used]
    if unused and rng.random() < 0.3:
        pred, _kind, _chain = unused[rng.randrange(len(unused))]
        spec.optionals.append((subject, pred, "?opt0"))

    # Shape modifiers: grouped aggregate, DISTINCT, or ORDER BY+LIMIT.
    value_vars = [v for v, _k in vars_by_kind]
    roll = rng.random()
    if roll < 0.3 and value_vars:
        # Give SUM / AVG an integer column to read where the entity has one.
        used = {p for _s, p, _o in spec.patterns}
        ints = [a for a in attrs if a[1] == "int" and a[0] not in used]
        if ints and rng.random() < 0.7:
            var = "?v%d" % counter
            spec.patterns.append((subject, ints[0][0], var))
            vars_by_kind.append((var, "int"))
        spec.group = _make_group(rng, subject, vars_by_kind)
        spec.optionals = []  # keep grouped shapes simple and total
    elif roll < 0.5:
        spec.distinct = True
    if (spec.group is None and not spec.optionals
            and rng.random() < 0.3):
        spec.limit = [5, 10, 20][rng.randrange(3)]

    # BIND and VALUES come last, so the draws above do not depend on them.
    ints = [v for v, k in vars_by_kind if k == "int"]
    if rng.random() < 0.35:
        variables = [subject] + [v for v, _k in vars_by_kind]
        for index in range(rng.randint(1, 2)):
            spec.binds.append(_make_bind(rng, index, variables, ints))
    if rng.random() < 0.3:
        spec.values.append(_make_values(rng, vars_by_kind,
                                        allow_undef=spec.limit is None))
    # Function filters come last of all, for the same reason.
    if rng.random() < 0.4:
        variables = [v for v, _k in vars_by_kind] + spec.optional_vars()
        for _ in range(rng.randint(1, 2)):
            spec.filters.append(_make_function_filter(rng, variables, ints))
    return spec


# ---------------------------------------------------------------------------
# Shrinking
# ---------------------------------------------------------------------------

def _prune(spec: QuerySpec) -> QuerySpec:
    """Drop filters/optionals that reference no-longer-bound variables."""
    bound = set(spec.bound_vars())
    spec.optionals = [o for o in spec.optionals if o[0] in bound]
    in_scope = bound | set(spec.optional_vars())
    spec.filters = [f for f in spec.filters
                    if all(v in in_scope for v in f[0])]
    spec.binds = [b for b in spec.binds if b[1] is None or b[1] in bound]
    spec.values = [block for block in spec.values
                   if all(_is_fresh(v) or v in bound for v in block[0])]
    if spec.group is not None \
            and not all(v in bound for v in spec.group_vars()):
        spec.group = None
    if spec.optionals:
        spec.limit = None
    return spec


def _copy(spec: QuerySpec) -> QuerySpec:
    dup = QuerySpec(spec.seed)
    dup.patterns = list(spec.patterns)
    dup.filters = list(spec.filters)
    dup.optionals = list(spec.optionals)
    dup.binds = list(spec.binds)
    dup.values = list(spec.values)
    dup.distinct = spec.distinct
    dup.group = spec.group
    dup.limit = spec.limit
    return dup


def _shrink_candidates(spec: QuerySpec):
    """Smaller specs in decreasing-aggressiveness order."""
    if spec.limit is not None:
        dup = _copy(spec)
        dup.limit = None
        yield dup
    if spec.group is not None:
        dup = _copy(spec)
        dup.group = None
        yield dup
        keys, aggregates, having = spec.group
        if having:
            dup = _copy(spec)
            dup.group = (keys, aggregates, None)
            yield dup
        for index in range(len(keys)):
            dup = _copy(spec)
            dup.group = (keys[:index] + keys[index + 1:], aggregates, having)
            yield dup
        # One aggregate at a time; a group keeps at least one.
        for index in range(len(aggregates)):
            if len(aggregates) > 1:
                dup = _copy(spec)
                dup.group = (keys,
                             aggregates[:index] + aggregates[index + 1:],
                             having)
                yield dup
    if spec.distinct:
        dup = _copy(spec)
        dup.distinct = False
        yield dup
    for index in range(len(spec.optionals)):
        dup = _copy(spec)
        del dup.optionals[index]
        yield dup
    for index in range(len(spec.binds)):
        dup = _copy(spec)
        del dup.binds[index]
        yield dup
    for index in range(len(spec.values)):
        dup = _copy(spec)
        del dup.values[index]
        yield dup
    for index in range(len(spec.filters)):
        dup = _copy(spec)
        del dup.filters[index]
        yield dup
    # Never drop below one pattern (keep the query valid).
    if len(spec.patterns) > 1:
        for index in range(len(spec.patterns) - 1, 0, -1):
            dup = _copy(spec)
            del dup.patterns[index]
            yield _prune(dup)


def shrink(spec: QuerySpec,
           still_fails: Callable[[QuerySpec], bool]) -> QuerySpec:
    """Greedily remove components while ``still_fails`` holds (fixpoint)."""
    changed = True
    while changed:
        changed = False
        for candidate in _shrink_candidates(spec):
            try:
                if still_fails(candidate):
                    spec = candidate
                    changed = True
                    break
            except Exception:
                # A candidate that errors differently is not a valid
                # shrink step; keep looking.
                continue
    return spec


# ---------------------------------------------------------------------------
# Graph mutation (for stale-read hunting)
# ---------------------------------------------------------------------------

def mutate(graph, rng: random.Random, tag: int) -> str:
    """Apply one deterministic mutation to ``graph``; returns a label.

    Alternates between *adding* a fresh film (new subject, so only
    post-mutation queries can see it) and *removing* an existing
    ``dbpp:starring`` edge (chosen from a ``repr``-sorted list, so the
    pick is independent of both hash seed and index iteration order).
    """
    from repro.rdf.namespaces import DBPO, DBPP, RDF
    from repro.rdf.terms import URIRef

    if rng.random() < 0.5:
        film = URIRef("http://dbpedia.org/resource/FuzzFilm_%d" % tag)
        graph.add(film, RDF.type, DBPO.Film)
        graph.add(film, DBPP.starring,
                  URIRef("http://dbpedia.org/resource/Actor_0"))
        graph.add(film, DBPP.country,
                  URIRef("http://dbpedia.org/resource/India"))
        return "add:%s" % film
    edges = sorted(graph.triples(None, DBPP.starring, None), key=repr)
    if not edges:
        return "noop"
    s, p, o = edges[rng.randrange(len(edges))]
    graph.remove(s, p, o)
    return "remove:%r" % ((s, p, o),)


def private_copy(dataset):
    """The graphs of ``dataset`` re-encoded into one new dictionary: a
    dataset whose expression-outcome store starts cold, whatever ran
    before in the process."""
    from repro.rdf import Dataset, Graph
    from repro.rdf.dictionary import TermDictionary

    dictionary = TermDictionary()
    copy = Dataset()
    for graph in dataset:
        twin = Graph(graph.uri, dictionary=dictionary)
        twin.update(graph)
        copy.add_graph(twin)
    return copy
