"""The RDFFrame: the lazy, navigational user API of the paper.

An RDFFrame is "an abstract description of a table" (Definition 2): it
holds no data, only the FIFO queue of operators recorded by user calls.
Every builder method returns a *new* RDFFrame (immutably extending the
queue), so branching pipelines like the paper's Listing 3 work naturally::

    movies   = graph.feature_domain_range('dbpp:starring', 'movie', 'actor')
    american = movies.filter({'actor_country': ['=dbpr:United_States']})
    prolific = movies.group_by(['actor']).count('movie', 'movie_count',
                                                unique=True)
    dataset  = american.join(prolific, 'actor', OuterJoin)

Calling :meth:`RDFFrame.execute` triggers query generation, translation,
execution on the engine/endpoint, and conversion of the results into a
:class:`~repro.dataframe.DataFrame`.
"""

from __future__ import annotations

from typing import Dict, List, Optional as Opt, Sequence, Tuple, Union

from . import operators as ops
from .generator import Generator
from .naive_generator import NaiveGenerator
from .translator import translate

# Public aliases matching the names used in the paper's listings.
OUTGOING = ops.OUTGOING
INCOMING = ops.INCOMING
OPTIONAL = "optional"
InnerJoin = ops.INNER_JOIN
LeftOuterJoin = ops.LEFT_OUTER_JOIN
RightOuterJoin = ops.RIGHT_OUTER_JOIN
OuterJoin = ops.FULL_OUTER_JOIN

_EXPAND_FLAGS = {OUTGOING, INCOMING, OPTIONAL}


class RDFFrameError(ValueError):
    """Raised on invalid RDFFrame API usage."""


class RDFFrame:
    """A logical description of a table extracted from a knowledge graph."""

    def __init__(self, knowledge_graph, operators: Tuple[ops.Operator, ...] = (),
                 columns: Tuple[str, ...] = ()):
        self._kg = knowledge_graph
        self._operators = tuple(operators)
        self._columns = tuple(columns)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def operators(self) -> Tuple[ops.Operator, ...]:
        """The recorded operator queue (FIFO)."""
        return self._operators

    @property
    def columns(self) -> List[str]:
        """Column names this frame describes, in creation order."""
        return list(self._columns)

    @property
    def graph_uri(self) -> Opt[str]:
        return self._kg.graph_uri

    @property
    def knowledge_graph(self):
        return self._kg

    def __repr__(self):
        return "RDFFrame(columns=%s, %d operators)" % (
            list(self._columns), len(self._operators))

    # ------------------------------------------------------------------
    # Internal builders
    # ------------------------------------------------------------------
    def _extend(self, operator: ops.Operator,
                new_columns: Sequence[str] = (),
                drop_columns: Sequence[str] = (),
                replace_columns: Opt[Sequence[str]] = None,
                frame_class: Opt[type] = None) -> "RDFFrame":
        if replace_columns is not None:
            columns = tuple(replace_columns)
        else:
            columns = tuple(c for c in self._columns if c not in drop_columns)
            for column in new_columns:
                if column not in columns:
                    columns = columns + (column,)
        cls = frame_class or RDFFrame
        return cls(self._kg, self._operators + (operator,), columns)

    def _require_column(self, column: str) -> None:
        if self._columns and column not in self._columns:
            raise RDFFrameError("unknown column %r (have %s)"
                                % (column, list(self._columns)))

    # ------------------------------------------------------------------
    # Navigational operators
    # ------------------------------------------------------------------
    def expand(self, src_column: str,
               predicates: Sequence[Sequence[str]]) -> "RDFFrame":
        """Navigate from ``src_column`` along one or more predicates.

        Each predicate spec is ``(pred, new_col)`` optionally followed by
        the direction (``INCOMING``/``OUTGOING``) and/or ``OPTIONAL``::

            movies.expand('actor', [('dbpp:birthPlace', 'country'),
                                    ('dbpp:starring', 'movie', INCOMING),
                                    ('dbpo:genre', 'genre', OPTIONAL)])
        """
        self._require_column(src_column)
        frame = self
        for spec in predicates:
            if len(spec) < 2:
                raise RDFFrameError("expand spec needs (predicate, new_col), "
                                    "got %r" % (spec,))
            predicate, new_column = spec[0], spec[1]
            direction = ops.OUTGOING
            optional = False
            for flag in spec[2:]:
                flag_text = str(flag).lower()
                if flag_text in (OUTGOING, INCOMING):
                    direction = flag_text
                elif flag_text == OPTIONAL or flag is True:
                    optional = True
                else:
                    raise RDFFrameError("unknown expand flag %r" % (flag,))
            operator = ops.ExpandOperator(src_column, predicate, new_column,
                                          direction, optional)
            added = [new_column]
            if str(predicate).startswith("?"):
                # Variable predicate (exploration): it is a column too.
                added.append(str(predicate)[1:])
            frame = frame._extend(operator, new_columns=added)
        return frame

    # ------------------------------------------------------------------
    # Relational operators
    # ------------------------------------------------------------------
    def filter(self, conditions: Union[Dict[str, Sequence[str]],
                                       Sequence[Tuple[str, str]]]) -> "RDFFrame":
        """Keep rows satisfying all conditions.

        ``conditions`` maps column name to a list of condition strings (see
        :mod:`repro.core.conditions` for the mini-language), or is a list of
        ``(column, condition)`` pairs.
        """
        pairs: List[Tuple[str, str]] = []
        if isinstance(conditions, dict):
            for column, column_conditions in conditions.items():
                if isinstance(column_conditions, (str, int, float)):
                    column_conditions = [column_conditions]
                for condition in column_conditions:
                    pairs.append((column, condition))
        else:
            pairs = [(c, cond) for c, cond in conditions]
        if not pairs:
            raise RDFFrameError("filter requires at least one condition")
        for column, _ in pairs:
            self._require_column(column)
        return self._extend(ops.FilterOperator(pairs),
                            frame_class=type(self))

    def select_cols(self, columns: Sequence[str]) -> "RDFFrame":
        """Projection: keep only ``columns``."""
        for column in columns:
            self._require_column(column)
        return self._extend(ops.SelectColsOperator(columns),
                            replace_columns=columns)

    def group_by(self, columns: Sequence[str]) -> "GroupedRDFFrame":
        """Group rows; follow with an aggregation (count/sum/avg/min/max)."""
        if isinstance(columns, str):
            columns = [columns]
        for column in columns:
            self._require_column(column)
        return self._extend(ops.GroupByOperator(columns),
                            replace_columns=columns,
                            frame_class=GroupedRDFFrame)

    def join(self, other: "RDFFrame", column: str,
             other_column: Opt[str] = None,
             join_type: str = InnerJoin,
             new_column: Opt[str] = None) -> "RDFFrame":
        """Join with another RDFFrame on ``column`` / ``other_column``.

        Accepts the paper's shorthand where the join type is passed in
        place of ``other_column``: ``movies.join(prolific, 'actor',
        OuterJoin)``.
        """
        if other_column in ops.JOIN_TYPES and join_type == InnerJoin:
            join_type = other_column
            other_column = None
        self._require_column(column)
        if other_column:
            other._require_column(other_column)
        else:
            other._require_column(column)
        operator = ops.JoinOperator(other, column, other_column,
                                    join_type, new_column)
        merged = [operator.new_column if c == column else c
                  for c in self._columns]
        for other_col in other._columns:
            mapped = (operator.new_column
                      if other_col == operator.other_column else other_col)
            if mapped not in merged:
                merged.append(mapped)
        return self._extend(operator, replace_columns=merged)

    def sort(self, keys: Union[Dict[str, str],
                               Sequence[Tuple[str, str]]]) -> "RDFFrame":
        """Sort by ``{column: 'asc'|'desc'}`` or ``[(column, order), ...]``."""
        if isinstance(keys, dict):
            key_list = list(keys.items())
        else:
            key_list = [tuple(k) for k in keys]
        for column, _ in key_list:
            self._require_column(column)
        return self._extend(ops.SortOperator(key_list),
                            frame_class=type(self))

    def head(self, limit: Opt[int], offset: int = 0) -> "RDFFrame":
        """The first ``limit`` rows starting at ``offset``.

        ``limit=None`` keeps everything from ``offset`` on (OFFSET-only).
        On the local engine a bounded head stops the pipelined operators:
        row production stops as soon as ``offset + limit`` rows exist.

        Example
        -------
        >>> from repro.client import EngineClient
        >>> from repro.core import KnowledgeGraph
        >>> from repro.data import DBPEDIA_URI, build_dataset
        >>> from repro.sparql import Engine
        >>> client = EngineClient(Engine(build_dataset(scale=0.02)))
        >>> frame = (KnowledgeGraph(graph_uri=DBPEDIA_URI)
        ...          .feature_domain_range("dbpp:starring", "film", "actor")
        ...          .head(5))
        >>> len(frame.execute(client))
        5
        """
        return self._extend(ops.HeadOperator(limit, offset),
                            frame_class=type(self))

    def cache(self) -> "RDFFrame":
        """Mark this frame as a shared subplan boundary (logical no-op)."""
        return self._extend(ops.CacheOperator(), frame_class=type(self))

    def distinct(self) -> "RDFFrame":
        """Collapse duplicate rows (compiles to SELECT DISTINCT)."""
        return self._extend(ops.DistinctOperator(), frame_class=type(self))

    # -- whole-frame aggregates ------------------------------------------
    def aggregate(self, function: str, column: str,
                  new_column: Opt[str] = None) -> "RDFFrame":
        """Aggregate a column over the whole frame to a single value."""
        self._require_column(column)
        new_column = new_column or "%s_%s" % (column, function)
        return self._extend(
            ops.AggregateAllOperator(function, column, new_column),
            replace_columns=[new_column])

    def count(self, column: str, new_column: Opt[str] = None,
              unique: bool = False) -> "RDFFrame":
        """Count (optionally distinct) values of ``column`` over the frame."""
        self._require_column(column)
        new_column = new_column or column + "_count"
        function = "distinct_count" if unique else "count"
        return self._extend(
            ops.AggregateAllOperator(function, column, new_column),
            replace_columns=[new_column])

    # ------------------------------------------------------------------
    # Query generation & execution
    # ------------------------------------------------------------------
    def query_model(self):
        """Generate this frame's (optimized) query model."""
        generator = Generator(self._kg.prefixes)
        return generator.generate(self)

    def _generate_model(self, strategy: str):
        if strategy == "optimized":
            return self.query_model()
        if strategy == "naive":
            return NaiveGenerator(self._kg.prefixes).generate(self)
        raise RDFFrameError("unknown strategy %r" % strategy)

    def to_sparql(self, strategy: str = "optimized",
                  validate: bool = True) -> str:
        """Generate the SPARQL query for this frame.

        ``strategy`` is ``'optimized'`` (the RDFFrames algorithm) or
        ``'naive'`` (the one-subquery-per-operator baseline of Section 6.3).
        """
        return translate(self._generate_model(strategy), validate=validate)

    def execute(self, client, return_format: str = "dataframe",
                strategy: str = "optimized", limit: Opt[int] = None,
                offset: int = 0):
        """Generate, execute, and fetch results as a dataframe.

        Every client gets the frame's SPARQL text, as in the paper: the
        in-process :class:`~repro.client.EngineClient` and an HTTP
        endpoint alike parse it with the engine's parser.  The text is
        not validated here (:meth:`to_sparql` does that); the parse that
        follows rejects anything malformed.

        ``limit``/``offset`` request one page of the result: they append
        a :meth:`head` window, which the engine's ``LimitPushdown`` pass
        moves toward the data — the page is produced with
        O(offset + limit) local row pulls instead of the full result.

        Example
        -------
        >>> from repro.client import EngineClient
        >>> from repro.core import KnowledgeGraph
        >>> from repro.data import DBPEDIA_URI, build_dataset
        >>> from repro.sparql import Engine
        >>> client = EngineClient(Engine(build_dataset(scale=0.02)))
        >>> counts = (KnowledgeGraph(graph_uri=DBPEDIA_URI)
        ...           .feature_domain_range("dbpp:starring", "film", "actor")
        ...           .group_by(["actor"]).count("film", "n"))
        >>> df = counts.execute(client)      # one pushed-down GROUP BY
        >>> list(df.columns)
        ['actor', 'n']
        """
        frame = self
        if limit is not None or offset:
            frame = frame.head(limit, offset)
        result = client.execute(
            translate(frame._generate_model(strategy), validate=False))
        if return_format in ("dataframe", "df", "pandas_df"):
            return result
        if return_format in ("records", "tuples"):
            return result.to_records()
        raise RDFFrameError("unknown return format %r" % return_format)


class GroupedRDFFrame(RDFFrame):
    """An RDFFrame produced by ``group_by`` — aggregations attach here.

    The special handling of grouped frames during query generation
    (nesting Cases 1 and 2) is internal; from the user's perspective this
    class just adds the aggregation methods.
    """

    def aggregation(self, function: str, src_column: str,
                    new_column: Opt[str] = None,
                    unique: bool = False) -> "GroupedRDFFrame":
        """Apply ``function`` to ``src_column`` within each group."""
        new_column = new_column or "%s_%s" % (src_column, function)
        operator = ops.AggregationOperator(function, src_column, new_column,
                                           distinct=unique)
        return self._extend(operator, new_columns=[new_column],
                            frame_class=GroupedRDFFrame)

    def count(self, column: str, new_column: Opt[str] = None,
              unique: bool = False) -> "GroupedRDFFrame":
        """COUNT (optionally DISTINCT) of ``column`` per group."""
        function = "distinct_count" if unique else "count"
        return self.aggregation(function, column,
                                new_column or column + "_count")

    def sum(self, column: str, new_column: Opt[str] = None):
        return self.aggregation("sum", column, new_column)

    def average(self, column: str, new_column: Opt[str] = None):
        return self.aggregation("average", column, new_column)

    avg = average
    mean = average

    def min(self, column: str, new_column: Opt[str] = None):
        return self.aggregation("min", column, new_column)

    def max(self, column: str, new_column: Opt[str] = None):
        return self.aggregation("max", column, new_column)

    def sample(self, column: str, new_column: Opt[str] = None):
        return self.aggregation("sample", column, new_column)
