"""Solution mappings and multisets — the semantic core of SPARQL evaluation.

Section 5.2 of the paper defines evaluation over *multisets of mappings*: a
mapping is a partial function from variables to RDF terms; two mappings are
compatible when they agree on every shared variable; joins merge compatible
mappings.  This module implements those definitions twice:

* The original *dict-based* representation: a mapping is a plain ``dict``
  from variable name (string, without the ``?``) to an RDF term; unbound
  variables are absent; a multiset is a list of such dicts (bag semantics).
  This representation is retained as the executable reference semantics —
  the :class:`~.reference.ReferenceEvaluator` runs on it, and the columnar
  operators are differential-tested against it.

* The *columnar* representation used by the production evaluator: a
  :class:`SolutionTable` with a fixed schema header (tuple of variable
  names) and positional rows of dense integer term ids (``None`` for
  unbound).  Joins hash ints instead of term objects, merges are tuple
  concatenation instead of dict copies, and terms are decoded only at the
  result boundary or inside expression evaluation (via :class:`RowView`).
"""

from __future__ import annotations

from itertools import compress
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..rdf.terms import Node

Mapping = Dict[str, Node]
Multiset = List[Mapping]

#: One columnar solution row: term ids positionally aligned with the
#: table's schema, ``None`` for unbound.
Row = Tuple[Optional[int], ...]


def compatible(mu1: Mapping, mu2: Mapping) -> bool:
    """True when the two mappings agree on all shared variables."""
    if len(mu2) < len(mu1):
        mu1, mu2 = mu2, mu1
    for var, value in mu1.items():
        other = mu2.get(var)
        if other is not None and other != value:
            return False
    return True


def merge(mu1: Mapping, mu2: Mapping) -> Mapping:
    """The union of two compatible mappings (mu2 extends mu1)."""
    merged = dict(mu1)
    merged.update(mu2)
    return merged


def _always_bound(solutions: Multiset, candidates: Sequence[str]) -> List[str]:
    """The subset of ``candidates`` bound in every mapping of the multiset."""
    bound = list(candidates)
    for mu in solutions:
        bound = [v for v in bound if v in mu]
        if not bound:
            break
    return bound


def _agree(mu1: Mapping, mu2: Mapping, variables: Sequence[str]) -> bool:
    for var in variables:
        v1 = mu1.get(var)
        if v1 is None:
            continue
        v2 = mu2.get(var)
        if v2 is not None and v1 != v2:
            return False
    return True


def hash_join(left: Multiset, right: Multiset,
              common: Sequence[str]) -> Multiset:
    """Join two multisets of mappings on their shared variables.

    ``common`` is the set of variables that occur in *both* operands'
    in-scope variables.  Variables in ``common`` that are unbound in a
    particular mapping still join (SPARQL compatibility).  The join hashes
    on the shared variables that are bound in *every* row of both sides
    (typically the entity keys) and verifies the remaining shared variables
    within each bucket — avoiding the quadratic blow-up a naive
    compatibility join suffers on union/optional results whose shared
    variables are sparsely bound.
    """
    if not left or not right:
        return []
    common = list(common)
    if not common:
        return [merge(l, r) for l in left for r in right]
    if len(right) < len(left):
        # Build the hash table on the smaller side.
        left, right = right, left

    keys = _always_bound(right, _always_bound(left, common))
    residual = [v for v in common if v not in keys]
    if not keys:
        return _loose_join(left, right, common)

    index: Dict[Tuple, List[Mapping]] = {}
    for mu in left:
        index.setdefault(tuple(mu[v] for v in keys), []).append(mu)

    out: Multiset = []
    for mu in right:
        bucket = index.get(tuple(mu[v] for v in keys))
        if not bucket:
            continue
        if residual:
            for other in bucket:
                if _agree(mu, other, residual):
                    out.append(merge(other, mu))
        else:
            for other in bucket:
                out.append(merge(other, mu))
    return out


def _loose_join(left: Multiset, right: Multiset,
                common: Sequence[str]) -> Multiset:
    """Fallback when no shared variable is universally bound: partition on
    fully-bound keys and nested-loop the rest."""
    index: Dict[Tuple, List[Mapping]] = {}
    loose: List[Mapping] = []
    for mu in left:
        key = tuple(mu.get(v) for v in common)
        if None in key:
            loose.append(mu)
        else:
            index.setdefault(key, []).append(mu)
    out: Multiset = []
    for mu in right:
        key = tuple(mu.get(v) for v in common)
        if None in key:
            for other in left:
                if compatible(mu, other):
                    out.append(merge(other, mu))
            continue
        for other in index.get(key, ()):
            out.append(merge(other, mu))
        for other in loose:
            if compatible(mu, other):
                out.append(merge(other, mu))
    return out


def left_join(left: Multiset, right: Multiset,
              common: Sequence[str]) -> Multiset:
    """SPARQL LeftJoin: every left mapping survives; compatible right
    mappings extend it, otherwise the left mapping passes through alone.

    Uses the same always-bound hashing strategy as :func:`hash_join`.
    """
    if not right:
        return list(left)
    common = list(common)
    if not common:
        return [merge(l, r) for l in left for r in right]

    keys = _always_bound(right, _always_bound(left, common))
    residual = [v for v in common if v not in keys]
    if not keys:
        return _loose_left_join(left, right, common)

    index: Dict[Tuple, List[Mapping]] = {}
    for mu in right:
        index.setdefault(tuple(mu[v] for v in keys), []).append(mu)

    out: Multiset = []
    for mu in left:
        matched = False
        bucket = index.get(tuple(mu[v] for v in keys))
        if bucket:
            for other in bucket:
                if not residual or _agree(mu, other, residual):
                    out.append(merge(mu, other))
                    matched = True
        if not matched:
            out.append(mu)
    return out


def _loose_left_join(left: Multiset, right: Multiset,
                     common: Sequence[str]) -> Multiset:
    index: Dict[Tuple, List[Mapping]] = {}
    loose: List[Mapping] = []
    for mu in right:
        key = tuple(mu.get(v) for v in common)
        if None in key:
            loose.append(mu)
        else:
            index.setdefault(key, []).append(mu)
    out: Multiset = []
    for mu in left:
        key = tuple(mu.get(v) for v in common)
        matched = False
        if None in key:
            for other in right:
                if compatible(mu, other):
                    out.append(merge(mu, other))
                    matched = True
        else:
            for other in index.get(key, ()):
                out.append(merge(mu, other))
                matched = True
            for other in loose:
                if compatible(mu, other):
                    out.append(merge(mu, other))
                    matched = True
        if not matched:
            out.append(mu)
    return out


def minus(left: Multiset, right: Multiset,
          common: Sequence[str]) -> Multiset:
    """Mappings in ``left`` with no compatible mapping in ``right``
    sharing at least one bound variable — SPARQL MINUS semantics."""
    return [mu for mu in left
            if not any(compatible(mu, other)
                       and any(v in mu and v in other for v in common)
                       for other in right)]


def project(solutions: Multiset, variables: Sequence[str]) -> Multiset:
    """Restrict each mapping to the given variables (bag semantics kept)."""
    wanted = list(variables)
    out = []
    for mu in solutions:
        out.append({v: mu[v] for v in wanted if v in mu})
    return out


def distinct(solutions: Multiset,
             variables: Optional[Sequence[str]] = None) -> Multiset:
    """Collapse duplicate mappings to multiplicity one."""
    seen = set()
    out = []
    for mu in solutions:
        if variables is None:
            key = tuple(sorted(mu.items(), key=lambda kv: kv[0]))
        else:
            key = tuple(mu.get(v) for v in variables)
        if key not in seen:
            seen.add(key)
            out.append(mu)
    return out


def in_scope_variables(solutions: Multiset) -> List[str]:
    """All variables bound in at least one mapping, in first-seen order."""
    seen: List[str] = []
    seen_set = set()
    for mu in solutions:
        for var in mu:
            if var not in seen_set:
                seen_set.add(var)
                seen.append(var)
    return seen


# ======================================================================
# Columnar solution tables (dictionary-encoded data plane)
# ======================================================================

class SolutionTable:
    """A multiset of solution mappings in columnar form.

    ``variables`` is the fixed schema header; ``rows`` is a list of
    positionally-aligned tuples of dense integer term ids (``None`` for
    unbound).  Duplicates are preserved (bag semantics).  Operators never
    mutate input rows, so tables can be shared (e.g. by the BGP cache).
    """

    __slots__ = ("variables", "index", "rows")

    def __init__(self, variables: Sequence[str],
                 rows: Optional[List[Row]] = None):
        self.variables: Tuple[str, ...] = tuple(variables)
        self.index: Dict[str, int] = {v: i for i, v in
                                      enumerate(self.variables)}
        self.rows: List[Row] = rows if rows is not None else []

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self):
        return "SolutionTable(%d rows, vars=%s)" % (
            len(self.rows), list(self.variables))

    @staticmethod
    def unit() -> "SolutionTable":
        """The join identity: one empty solution."""
        return SolutionTable((), [()])


class ColumnBatch:
    """One batch of solution rows in columnar form.

    ``columns`` holds one flat list of dense term ids per schema
    variable; an unbound cell stores the sentinel ``-1`` and is flagged in
    the column's null mask.  ``masks`` is ``None`` when no column has a
    null, otherwise a list with one entry per column: ``None`` (no nulls
    in that column) or a ``bytearray`` whose byte ``1`` marks a null row.
    Term ids are dense non-negative integers, so ``-1`` can never collide
    with a real binding.

    Columns are deliberately plain lists rather than ``array('q')``:
    the ids referenced by a column already exist as interned int objects
    in the graph indexes, so a list column is just shared pointers —
    selection (``itertools.compress``), slicing, flattening and
    counting all run at C speed without re-boxing.  A typed-array layout
    was measured here and lost 1.5-2.5x on exactly those kernels because
    every element read materializes a fresh int object.

    A ``ColumnBatch`` is interchangeable with a row-batch everywhere:
    iterating it (or indexing a row) yields the exact ``None``-restored
    id-tuples the row representation uses, so any operator that has no
    columnar fast path transparently falls back to row view.  Vectorized
    operators instead work on whole columns: selection vectors are
    applied with :meth:`take_flags`, projections with :meth:`take` (which
    shares column storage — columns are never mutated in place).
    """

    __slots__ = ("columns", "masks", "length")

    def __init__(self, columns: List[list],
                 masks: Optional[List[Optional[bytearray]]] = None,
                 length: Optional[int] = None):
        self.columns = columns
        self.masks = masks
        self.length = len(columns[0]) if length is None else length

    @classmethod
    def from_rows(cls, rows: Sequence[Row], width: int) -> "ColumnBatch":
        """Transpose a row batch (id-tuples, ``None`` for unbound)."""
        n = len(rows)
        if width == 0:
            return cls([], None, n)
        if n == 0:
            return cls([[] for _ in range(width)], None, 0)
        columns: List[list] = []
        masks: Optional[List[Optional[bytearray]]] = None
        for j, col in enumerate(zip(*rows)):
            col = list(col)
            if None in col:
                # The column has nulls: patch them to the sentinel and
                # record their positions in the mask.
                mask = bytearray(n)
                for i, tid in enumerate(col):
                    if tid is None:
                        mask[i] = 1
                        col[i] = -1
                if masks is None:
                    masks = [None] * width
                masks[j] = mask
            columns.append(col)
        return cls(columns, masks, n)

    def to_rows(self) -> List[Row]:
        """Transpose back to the row-tuple representation."""
        if not self.columns:
            return [()] * self.length
        masks = self.masks
        if masks is None:
            return list(zip(*self.columns))
        cols: List[Sequence] = []
        for col, mask in zip(self.columns, masks):
            if mask is None:
                cols.append(col)
            else:
                cols.append([None if null else tid
                             for tid, null in zip(col, mask)])
        return list(zip(*cols))

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return iter(self.to_rows())

    def __getitem__(self, item):
        if isinstance(item, slice):
            masks = self.masks
            if masks is not None:
                masks = [None if m is None else m[item] for m in masks]
                if not any(masks):
                    masks = None
            start, stop, _ = item.indices(self.length)
            return ColumnBatch([col[item] for col in self.columns], masks,
                               max(0, stop - start))
        masks = self.masks
        if masks is None:
            return tuple(col[item] for col in self.columns)
        return tuple(None if m is not None and m[item] else col[item]
                     for col, m in zip(self.columns, masks))

    @property
    def width(self) -> int:
        return len(self.columns)

    def column(self, pos: int) -> list:
        return self.columns[pos]

    def mask(self, pos: int) -> Optional[bytearray]:
        return None if self.masks is None else self.masks[pos]

    def take(self, positions: Sequence[Optional[int]]) -> "ColumnBatch":
        """Project to the given column positions (``None`` produces an
        all-null column).  Shares column storage — no data is copied."""
        n = self.length
        columns: List[list] = []
        masks: Optional[List[Optional[bytearray]]] = None
        for j, p in enumerate(positions):
            if p is None:
                columns.append([-1] * n)
                if masks is None:
                    masks = [None] * len(positions)
                masks[j] = bytearray(b"\x01" * n)
            else:
                columns.append(self.columns[p])
                m = self.mask(p)
                if m is not None:
                    if masks is None:
                        masks = [None] * len(positions)
                    masks[j] = m
        return ColumnBatch(columns, masks, n)

    def take_flags(self, flags: bytearray, kept: int) -> "ColumnBatch":
        """Apply a selection vector: keep row ``i`` when ``flags[i]``."""
        if kept == self.length:
            return self
        columns = [list(compress(col, flags)) for col in self.columns]
        masks = self.masks
        if masks is not None:
            masks = [None if m is None else bytearray(compress(m, flags))
                     for m in masks]
            if not any(any(m) for m in masks if m is not None):
                masks = None
        return ColumnBatch(columns, masks, kept)

    def append_column(self, col: list,
                      mask: Optional[bytearray] = None) -> "ColumnBatch":
        """A new batch with one extra column (storage shared)."""
        columns = self.columns + [col]
        masks = self.masks
        if masks is not None or mask is not None:
            masks = ([None] * len(self.columns) if masks is None
                     else list(masks)) + [mask]
        return ColumnBatch(columns, masks, self.length)

    def __repr__(self):
        return "ColumnBatch(%d rows x %d cols)" % (self.length,
                                                   len(self.columns))


class TableStream:
    """A lazily-produced :class:`SolutionTable`: a fixed schema header plus
    an iterator of *batches* — row-tuple lists, or :class:`ColumnBatch`
    objects on the vectorized plane (operators accept either kind).

    This is the unit of the pipelined executor: operators hand each other
    ``TableStream`` objects and pull batches on demand, so a bounded
    consumer (``Slice``, ``TopK``) stops upstream row production simply by
    not pulling.  The schema is computed statically at stream-construction
    time — no batch has to be pulled to know the columns.

    ``total_rows`` counts every row that has crossed this stream's batch
    boundary so far, maintained while batches are pulled — consumers that
    drain the stream (``to_table``, the result cursor) read the row count
    from here instead of re-measuring, which keeps it in lockstep with
    ``EvaluationStats.rows_pulled`` without a second pass.
    """

    __slots__ = ("variables", "index", "batches", "total_rows")

    def __init__(self, variables: Sequence[str], batches):
        self.variables: Tuple[str, ...] = tuple(variables)
        self.index: Dict[str, int] = {v: i for i, v in
                                      enumerate(self.variables)}
        self.total_rows = 0
        self.batches = self._count(batches)

    def _count(self, batches):
        try:
            for batch in batches:
                self.total_rows += len(batch)
                yield batch
        finally:
            # Propagate early-exit close() into the wrapped producer so
            # its cleanup (generator finalizers upstream) still runs.
            close = getattr(batches, "close", None)
            if close is not None:
                close()

    def rows(self):
        """Flatten the remaining batches into one row iterator."""
        for batch in self.batches:
            for row in batch:
                yield row

    def to_table(self) -> SolutionTable:
        """Drain the stream into a materialized table."""
        rows: List[Row] = []
        for batch in self.batches:
            if type(batch) is ColumnBatch:
                rows.extend(batch.to_rows())
            else:
                rows.extend(batch)
        return SolutionTable(self.variables, rows)

    def __repr__(self):
        return "TableStream(vars=%s)" % (list(self.variables),)


def batched(rows: Sequence[Row], cap: int):
    """Re-chunk a materialized row list into batches of at most ``cap``.

    Chunks are list slices (one shallow copy each); a list that already
    fits in one batch is yielded *as is* — consumers never mutate batches,
    so re-chunking a materialized table must not duplicate it."""
    if len(rows) <= cap:
        if rows:
            yield rows
        return
    for start in range(0, len(rows), cap):
        yield rows[start:start + cap]


def stream_distinct(batches, seen: Optional[set] = None):
    """Streaming dedup over an iterator of batches (row lists or
    :class:`ColumnBatch`).

    Yields each batch reduced to its first-seen rows, preserving order and
    pulling nothing beyond what the consumer asks for — the dedup behind
    both the executor's ``Distinct`` operator and
    :meth:`~repro.sparql.results.ResultSet.distinct`.  ``seen`` can be
    passed in to carry dedup state across several streams (e.g. paginated
    fetches); the key representation per row is identical for columnar
    and row batches — single-column rows dedup on the bare cell value,
    wider rows on the id-tuple — so one ``seen`` set is shared across
    batch kinds."""
    if seen is None:
        seen = set()
    add = seen.add
    for batch in batches:
        if type(batch) is ColumnBatch:
            if batch.width == 1:
                # Hot single-column shape: dedup on bare ids, no tuples,
                # and (unmasked) no selection vector either — the single
                # survivor column is built directly in one pass.
                mask = batch.mask(0)
                if mask is None:
                    fresh = []
                    append = fresh.append
                    for value in batch.columns[0]:
                        if value not in seen:
                            add(value)
                            append(value)
                    if fresh:
                        yield ColumnBatch([fresh], None, len(fresh))
                    continue
                cells = (None if null else tid
                         for tid, null in zip(batch.columns[0], mask))
                flags = bytearray(len(batch))
                kept = 0
                for i, value in enumerate(cells):
                    if value not in seen:
                        add(value)
                        flags[i] = 1
                        kept += 1
                if kept:
                    yield batch.take_flags(flags, kept)
                continue
            flags = bytearray(len(batch))
            kept = 0
            for i, row in enumerate(batch.to_rows()):
                if row not in seen:
                    add(row)
                    flags[i] = 1
                    kept += 1
            if kept:
                yield batch.take_flags(flags, kept)
            continue
        fresh = []
        append = fresh.append
        if batch and len(batch[0]) == 1:
            for row in batch:
                value = row[0]
                if value not in seen:
                    add(value)
                    append(row)
        else:
            for row in batch:
                if row not in seen:
                    add(row)
                    append(row)
        if fresh:
            yield fresh


class RowView:
    """A read-only dict-like view of one columnar row, decoding term ids
    lazily on access.  This is what expression evaluation sees: an unbound
    variable (``None`` cell or absent column) raises ``KeyError`` from
    ``[]``, exactly like the dict representation, so SPARQL error
    semantics are preserved without materializing a dict per row."""

    __slots__ = ("_index", "_row", "_decode")

    def __init__(self, index: Dict[str, int], row: Row,
                 decode: Callable[[int], Node]):
        self._index = index
        self._row = row
        self._decode = decode

    def __getitem__(self, name: str) -> Node:
        pos = self._index.get(name)
        if pos is None:
            raise KeyError(name)
        tid = self._row[pos]
        if tid is None:
            raise KeyError(name)
        return self._decode(tid)

    def __contains__(self, name: str) -> bool:
        pos = self._index.get(name)
        return pos is not None and self._row[pos] is not None

    def get(self, name: str, default=None):
        pos = self._index.get(name)
        if pos is None:
            return default
        tid = self._row[pos]
        if tid is None:
            return default
        return self._decode(tid)

    def keys(self):
        return [v for v, pos in self._index.items()
                if self._row[pos] is not None]

    def __iter__(self):
        return iter(self.keys())

    def __len__(self):
        return sum(1 for cell in self._row if cell is not None)


# -- schema plumbing ---------------------------------------------------

def _merge_plan(left: SolutionTable, right: SolutionTable):
    """Precompute the merged schema of a binary operator.

    Returns ``(out_vars, shared, right_only)`` where ``shared`` is a list
    of ``(left_pos, right_pos)`` pairs for variables in both schemas and
    ``right_only`` the right positions appended after the left columns.
    """
    shared: List[Tuple[int, int]] = []
    right_only: List[int] = []
    lindex = left.index
    for rpos, var in enumerate(right.variables):
        lpos = lindex.get(var)
        if lpos is None:
            right_only.append(rpos)
        else:
            shared.append((lpos, rpos))
    out_vars = left.variables + tuple(right.variables[rp]
                                      for rp in right_only)
    return out_vars, shared, right_only


def _merge_rows(lrow: Row, rrow: Row, shared, right_only) -> Row:
    """Union of two compatible rows in the merged schema."""
    if shared:
        merged = list(lrow)
        for lp, rp in shared:
            if merged[lp] is None:
                merged[lp] = rrow[rp]
        merged.extend(rrow[rp] for rp in right_only)
        return tuple(merged)
    return lrow + tuple(rrow[rp] for rp in right_only)


def _rows_compatible(lrow: Row, rrow: Row, shared) -> bool:
    for lp, rp in shared:
        a = lrow[lp]
        if a is None:
            continue
        b = rrow[rp]
        if b is not None and a != b:
            return False
    return True


def _rows_overlap(lrow: Row, rrow: Row, shared) -> bool:
    """Compatible *and* sharing at least one variable bound on both
    sides — the MINUS exclusion test."""
    overlap = False
    for lp, rp in shared:
        a = lrow[lp]
        b = rrow[rp]
        if a is None or b is None:
            continue
        if a != b:
            return False
        overlap = True
    return overlap


# -- the join kernel ---------------------------------------------------

class JoinIndex:
    """The one join kernel: a build-once hash index over a materialized
    table, probed by Join, LeftJoin, Minus and FILTER (NOT) EXISTS.

    The rule, stated once: the index is keyed on the shared columns that
    are bound in *every* build row; the remaining (residual) shared
    columns are verified inside the bucket.  A probe row that leaves some
    key columns unbound is looked up in a narrower index over the key
    columns it does bind (built on first use); one that binds none of
    them — and every probe when no shared column is always bound —
    scans the build rows.

    ``build`` is the materialized side; ``probe`` only lends its schema
    (a :class:`SolutionTable` or a :class:`TableStream`), its rows arrive
    batch by batch through :meth:`join` / :meth:`left_join` /
    :meth:`semi_join`.  ``build_is_left`` says which side of the merged
    schema (left columns, then the right-only ones) the build rows are.
    """

    __slots__ = ("variables", "rows", "build_is_left", "shared",
                 "right_only", "pairs", "keys", "residual", "_indexes")

    def __init__(self, build: SolutionTable, probe,
                 build_is_left: bool = False):
        left, right = (build, probe) if build_is_left else (probe, build)
        self.variables, self.shared, self.right_only = _merge_plan(left,
                                                                   right)
        self.rows = rows = build.rows
        self.build_is_left = build_is_left
        # (probe position, build position) per shared variable.
        self.pairs = [(rp, lp) for lp, rp in self.shared] \
            if build_is_left else self.shared
        self.keys = tuple([(pp, bp) for pp, bp in self.pairs
                           if all(row[bp] is not None for row in rows)])
        self.residual = [pair for pair in self.pairs
                         if pair not in self.keys]
        self._indexes: Dict[Tuple, Dict] = {}

    def _index(self, keys: Tuple) -> Dict:
        """The build rows hashed on ``keys`` (a sub-tuple of
        :attr:`keys`) — the only place a build table is partitioned."""
        index = self._indexes.get(keys)
        if index is None:
            self._indexes[keys] = index = {}
            if len(keys) == 1:
                # Scalar keys: no per-row tuple construction.
                bp = keys[0][1]
                for row in self.rows:
                    index.setdefault(row[bp], []).append(row)
            else:
                build_key = [bp for _, bp in keys]
                for row in self.rows:
                    index.setdefault(tuple([row[p] for p in build_key]),
                                     []).append(row)
        return index

    def _probe(self, rows, overlap: bool = False):
        """Yield ``(row, matches, exact)`` per probe row: ``matches`` are
        the build rows compatible with it (``overlap`` additionally
        demands a shared variable bound on both sides — MINUS), ``exact``
        is True when every shared column is bound on both sides, so the
        merged row is plain concatenation."""
        build = self.rows
        pairs = self.pairs
        keys = self.keys
        check = _rows_overlap if overlap else _rows_compatible
        if not keys:
            if pairs:
                for row in rows:
                    yield row, [b for b in build if check(row, b, pairs)], \
                        False
            else:
                # No shared variable: everything is compatible, nothing
                # overlaps.
                matches = () if overlap else build
                for row in rows:
                    yield row, matches, True
            return
        get = self._index(keys).get
        residual = self.residual
        exact = not residual
        probe_key = [pp for pp, _ in keys]
        scalar = probe_key[0] if len(probe_key) == 1 else None
        for row in rows:
            if scalar is not None:
                key = row[scalar]
                partial = key is None
            else:
                key = tuple([row[p] for p in probe_key])
                partial = None in key
            if not partial:
                bucket = get(key)
            else:
                bound = tuple([pair for pair in keys
                               if row[pair[0]] is not None])
                if not bound:
                    yield row, [b for b in build
                                if check(row, b, pairs)], False
                    continue
                bucket = self._index(bound).get(
                    row[bound[0][0]] if len(bound) == 1
                    else tuple([row[pp] for pp, _ in bound]))
            if bucket and residual:
                bucket = [b for b in bucket
                          if _rows_compatible(row, b, residual)]
            yield row, bucket, exact and not partial

    def join(self, probe_rows) -> List[Row]:
        """Inner-join one batch of probe rows against the build side."""
        out: List[Row] = []
        append = out.append
        shared, right_only = self.shared, self.right_only
        if self.build_is_left:
            for rrow, matches, exact in self._probe(probe_rows):
                if not matches:
                    continue
                if exact:
                    extra = tuple([rrow[rp] for rp in right_only])
                    for lrow in matches:
                        append(lrow + extra)
                else:
                    for lrow in matches:
                        append(_merge_rows(lrow, rrow, shared, right_only))
            return out
        for lrow, matches, exact in self._probe(probe_rows):
            if not matches:
                continue
            if exact:
                for rrow in matches:
                    append(lrow + tuple([rrow[rp] for rp in right_only]))
            else:
                for rrow in matches:
                    append(_merge_rows(lrow, rrow, shared, right_only))
        return out

    def left_join(self, left_rows,
                  accept: Optional[Callable[[Row], bool]] = None
                  ) -> List[Row]:
        """SPARQL LeftJoin of one batch of left rows against the build
        (right) side: compatible right rows extend a left row, otherwise
        it passes through padded with ``None``.  ``accept``, when given,
        is the LeftJoin *condition* on a merged candidate row — evaluated
        only on the kernel's candidates, never over the cross product."""
        pad = (None,) * len(self.right_only)
        if not self.rows:
            return [lrow + pad for lrow in left_rows]
        out: List[Row] = []
        append = out.append
        shared, right_only = self.shared, self.right_only
        for lrow, matches, exact in self._probe(left_rows):
            if matches:
                if exact and accept is None:
                    for rrow in matches:
                        append(lrow + tuple([rrow[rp] for rp in right_only]))
                    continue
                matched = False
                for rrow in matches:
                    merged = _merge_rows(lrow, rrow, shared, right_only)
                    if accept is None or accept(merged):
                        append(merged)
                        matched = True
                if matched:
                    continue
            append(lrow + pad)
        return out

    def semi_join(self, probe_rows, negated: bool = False,
                  overlap: bool = False) -> List[Row]:
        """The probe rows that have (``negated``: have no) compatible
        build row — FILTER (NOT) EXISTS; with ``overlap`` the match must
        also share a bound variable — MINUS."""
        return [row for row, matches, _ in self._probe(probe_rows, overlap)
                if (not matches) == negated]


# -- operators ---------------------------------------------------------

def table_join(left: SolutionTable, right: SolutionTable) -> SolutionTable:
    """Join two solution tables on their shared schema variables, building
    the :class:`JoinIndex` on the smaller side."""
    if len(left.rows) <= len(right.rows):
        index = JoinIndex(left, right, build_is_left=True)
        probe = right
    else:
        index = JoinIndex(right, left)
        probe = left
    return SolutionTable(index.variables, index.join(probe.rows))


def table_left_join(left: SolutionTable, right: SolutionTable,
                    accept: Optional[Callable[[Row], bool]] = None
                    ) -> SolutionTable:
    """SPARQL LeftJoin on solution tables (see :meth:`JoinIndex.left_join`)."""
    index = JoinIndex(right, left)
    return SolutionTable(index.variables,
                         index.left_join(left.rows, accept))


def table_minus(left: SolutionTable, right: SolutionTable) -> SolutionTable:
    """Rows of ``left`` with no compatible row in ``right`` sharing at
    least one *bound* variable — SPARQL MINUS semantics."""
    rows = JoinIndex(right, left).semi_join(left.rows, negated=True,
                                            overlap=True)
    return SolutionTable(left.variables, rows)


# -- conversion (tests / decode boundary) ------------------------------

def table_from_mappings(solutions: Multiset, dictionary,
                        variables: Optional[Sequence[str]] = None
                        ) -> SolutionTable:
    """Encode a dict-based multiset into a columnar table."""
    if variables is None:
        variables = in_scope_variables(solutions)
    encode = dictionary.encode
    rows = [tuple(encode(mu[v]) if v in mu else None for v in variables)
            for mu in solutions]
    return SolutionTable(variables, rows)


def table_to_mappings(table: SolutionTable, dictionary) -> Multiset:
    """Decode a columnar table back into a dict-based multiset."""
    decode = dictionary.decode
    out: Multiset = []
    variables = table.variables
    for row in table.rows:
        out.append({v: decode(tid) for v, tid in zip(variables, row)
                    if tid is not None})
    return out
