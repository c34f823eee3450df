"""Checksummed binary snapshots of a set of graphs + their dictionary.

A snapshot file is::

    magic "RPRSNAP1"
    section 'H'  header   : format version, generation, last WAL seqno,
                            graph count, term count
    section 'D'  dictionary: term_count kind-tagged length-prefixed
                            string records, in id order
    section 'G'  graph (one per graph, sorted by uri):
                            uri, version, triple count, then the three
                            index orderings (SPO, POS, OSP) as
                            length-prefixed packed column runs (sort
                            column delta-encoded; see
                            :func:`~repro.storage.format.encode_sorted_triples`)
    section 'E'  end marker (empty payload)

Every section is framed ``tag | length | payload | crc32`` (see
:mod:`~repro.storage.format`); any framing, checksum, magic, or count
failure raises :class:`~repro.sparql.errors.CorruptSnapshotError`, and
the store falls back to the previous generation.

Storing all three orderings trades ~3x snapshot bytes for a bulk
restore of each nested index: whole id columns come back via
``frombuffer`` + ``cumsum`` and are validated *eagerly* at load time
(checksums, id range, duplicate rows), but the Python-object
``{a: {b: {c, ...}}}`` structure itself is **deferred**: the loader
returns :class:`SnapshotGraph` instances whose three indexes
materialize independently on first touch, the way a production engine
restarts fast and warms pages on demand.  Materialization is
per-group (not per-triple) Python work from the sorted columns.  No
term re-parsing, no re-interning per occurrence, nothing rebuilt
before a query asks for it — which is what makes
reopen-from-snapshot an order of magnitude faster than rebuilding
from N-Triples text (the ``durability`` benchmark section holds
restart-to-first-answer to >= 10x and reports the full warm cost
alongside).

Writes go through a :class:`~repro.storage.fileio.StorageIO` section by
section, then commit via atomic rename, so the crash matrix can kill the
writer at any byte and recovery still finds either the old complete
snapshot or the new complete snapshot — never a half state.
"""

from __future__ import annotations

import gc
import os
import re
import threading
from contextlib import contextmanager
from struct import Struct
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..rdf.dictionary import TermDictionary
from ..rdf.graph import Graph
from ..sparql.errors import CorruptSnapshotError
from .fileio import StorageIO
from .format import (FormatError, decode_varint, decode_varstr,
                     decode_sorted_triples, decode_term,
                     encode_sorted_triples, encode_term, frame_section,
                     read_section, write_varint, write_varstr)

__all__ = ["write_snapshot", "load_snapshot", "list_snapshots",
           "snapshot_path", "SNAPSHOT_MAGIC", "SNAPSHOT_VERSION",
           "DictionaryPayload", "LoadedSnapshot", "SnapshotGraph"]

SNAPSHOT_MAGIC = b"RPRSNAP1"
SNAPSHOT_VERSION = 1

_U32 = Struct("<I")
_NAME = re.compile(r"^snapshot-(\d{6,})\.snap$")


def snapshot_path(directory: str, generation: int) -> str:
    return os.path.join(directory, "snapshot-%06d.snap" % generation)


def list_snapshots(directory: str) -> List[Tuple[int, str]]:
    """``(generation, path)`` for every snapshot file, oldest first."""
    found = []
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    for name in names:
        match = _NAME.match(name)
        if match:
            found.append((int(match.group(1)),
                          os.path.join(directory, name)))
    found.sort()
    return found


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
class DictionaryPayload:
    """The ``'D'`` section payload for a dictionary's first ``terms`` ids.

    A :class:`~repro.rdf.dictionary.TermDictionary` is append-only, so
    the encoding of ids ``0..n-1`` never changes: a store keeps one
    payload across checkpoints and each checkpoint encodes only the
    terms interned since the last (:meth:`through`).  A snapshot load
    that kept every id seeds it with the section it read.
    """

    __slots__ = ("dictionary", "table", "terms")

    def __init__(self, dictionary: TermDictionary, table: bytes = b"",
                 terms: int = 0):
        self.dictionary = dictionary
        self.table = bytearray(table)
        self.terms = terms

    def through(self, term_count: int) -> bytes:
        """The payload for ids ``0..term_count-1``, extended in place."""
        if term_count < self.terms:
            raise ValueError("a dictionary payload cannot shrink")
        decode = self.dictionary.decode
        for tid in range(self.terms, term_count):
            encode_term(self.table, decode(tid))
        self.terms = term_count
        return bytes(self.table)


def write_snapshot(io: StorageIO, directory: str, generation: int,
                   graphs: Sequence[Graph], dictionary: TermDictionary,
                   last_seqno: int,
                   payload: Optional[DictionaryPayload] = None) -> str:
    """Write one complete snapshot and atomically publish it.

    The dictionary is captured first (``len(dictionary)`` terms); graph
    index sweeps afterwards can only see ids below that bound because
    ids are assigned at interning time, so the capture is internally
    consistent even if the caller races a concurrent reader (writers
    must be quiesced — the store holds its mutation lock).  ``payload``
    is the caller's :class:`DictionaryPayload` for ``dictionary``, which
    this extends; without one every term is encoded.
    """
    term_count = len(dictionary)
    if payload is None or payload.dictionary is not dictionary:
        payload = DictionaryPayload(dictionary)
    final_path = snapshot_path(directory, generation)
    tmp_path = final_path + ".tmp"

    header = bytearray()
    write_varint(header, SNAPSHOT_VERSION)
    write_varint(header, generation)
    write_varint(header, last_seqno)
    write_varint(header, len(graphs))
    write_varint(header, term_count)

    handle = io.open_write(tmp_path)
    try:
        handle.write(SNAPSHOT_MAGIC)
        handle.write(frame_section(b"H", bytes(header)))
        handle.write(frame_section(b"D", payload.through(term_count)))
        for graph in sorted(graphs, key=lambda g: g.uri):
            handle.write(frame_section(b"G", _encode_graph(graph)))
        handle.write(frame_section(b"E", b""))
        handle.fsync()
    finally:
        handle.close()
    io.replace(tmp_path, final_path)
    io.fsync_dir(directory)
    return final_path


def _encode_graph(graph: Graph) -> bytes:
    count = len(graph)
    ids = np.fromiter((x for t in graph.triples_ids() for x in t),
                      dtype=np.int64, count=count * 3).reshape(count, 3)
    s, p, o = ids[:, 0], ids[:, 1], ids[:, 2]
    out = bytearray()
    write_varstr(out, graph.uri)
    write_varint(out, graph.version)
    write_varint(out, count)
    # lexsort keys are listed least-significant first
    for a, b, c in ((s, p, o), (p, o, s), (o, s, p)):
        order = np.lexsort((c, b, a))
        run = encode_sorted_triples(a[order], b[order], c[order])
        write_varint(out, len(run))
        out += run
    return bytes(out)


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
@contextmanager
def _gc_paused():
    """Pause the cyclic collector during bulk object construction.

    Recovery builds hundreds of thousands of term objects, sets, and
    dicts in a tight loop; every generation-0 threshold crossing makes
    the collector rescan all live containers (including the graphs
    already resident in the process), which turns an O(n) build into
    repeated O(heap) sweeps — measured 3-6x slowdowns at a million
    triples.  Nothing constructed here can become garbage mid-build, so
    collection is pure overhead.  Restores the collector's prior state
    even on failure; a no-op when it was already disabled.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _DeferredIndex:
    """Non-data descriptor behind ``_spo``/``_pos``/``_osp`` on a
    :class:`SnapshotGraph`: the first touch builds that one nested index
    from the decoded snapshot columns and caches it in the instance
    dict, which shadows the descriptor — so every later access is a
    plain attribute lookup with zero residual overhead."""

    __slots__ = ("_name", "_slot")

    def __init__(self, name: str, slot: int):
        self._name = name
        self._slot = slot

    def __get__(self, graph, objtype=None):
        if graph is None:
            return self
        return graph._materialize_index(self._name, self._slot)


class SnapshotGraph(Graph):
    """A snapshot-loaded graph whose indexes materialize on demand.

    The loader validates everything up front (section checksums, id
    range, duplicate rows) and keeps the sorted id columns; the
    Python-object nested indexes are built per ordering on first
    access — a restart serves its first query after paying only for
    the index that query needs, and a graph nothing touches costs no
    index build at all.  Mutations work transparently (``add``/``remove``
    touch the indexes, which materializes them first), as does WAL
    replay.  ``indexes_materialized`` counts completed builds (0..3)
    so benchmarks and tests can attribute warm-up cost.
    """

    _spo = _DeferredIndex("_spo", 0)
    _pos = _DeferredIndex("_pos", 1)
    _osp = _DeferredIndex("_osp", 2)

    @classmethod
    def deferred(cls, uri: str, dictionary: TermDictionary,
                 columns: List[Tuple[np.ndarray, np.ndarray, np.ndarray]],
                 size: int, version: int) -> "SnapshotGraph":
        """Adopt decoded, validated column triples (SPO, POS, OSP order)."""
        graph = cls(uri, dictionary=dictionary)
        state = graph.__dict__
        # Expose the class-level descriptors: __init__ installed eager
        # empty indexes in the instance dict, which would shadow them.
        del state["_spo"], state["_pos"], state["_osp"]
        graph._snapshot_columns = list(columns)
        graph._snapshot_lock = threading.Lock()
        graph.indexes_materialized = 0
        graph._size = size
        graph.version = version
        return graph

    def _materialize_index(self, name: str, slot: int):
        with self._snapshot_lock:
            state = self.__dict__
            index = state.get(name)
            if index is None:
                a, b, c = self._snapshot_columns[slot]
                with _gc_paused():
                    index = _nested_index(a, b, c, self._size)
                self._snapshot_columns[slot] = None   # free the columns
                state[name] = index
                self.indexes_materialized += 1
        return index


class LoadedSnapshot:
    """What :func:`load_snapshot` recovered.  ``payload`` is the
    dictionary section as a :class:`DictionaryPayload` when every
    snapshot id landed on itself, else ``None``."""

    def __init__(self, generation: int, last_seqno: int,
                 graphs: List[Graph],
                 payload: Optional[DictionaryPayload] = None):
        self.generation = generation
        self.last_seqno = last_seqno
        self.graphs = graphs
        self.payload = payload


def load_snapshot(path: str, dictionary: TermDictionary
                  ) -> LoadedSnapshot:
    """Load a snapshot, interning its terms into ``dictionary``.

    When ``dictionary`` already holds terms (reopening into a shared
    dictionary), snapshot ids are remapped through it; a fresh
    dictionary gets the identity mapping and skips the remap entirely.
    Raises :class:`~repro.sparql.errors.CorruptSnapshotError` on *any*
    structural or checksum failure — the caller decides whether an older
    generation can stand in.
    """
    try:
        with open(path, "rb") as fobj:
            data = fobj.read()
    except OSError as exc:
        raise CorruptSnapshotError("cannot read snapshot %s: %s"
                                   % (path, exc)) from exc
    try:
        with _gc_paused():
            return _parse_snapshot(data, dictionary, path)
    except (FormatError, ValueError, IndexError, OverflowError,
            MemoryError) as exc:
        raise CorruptSnapshotError("corrupt snapshot %s: %s"
                                   % (path, exc)) from exc


def _parse_snapshot(data: bytes, dictionary: TermDictionary,
                    path: str) -> LoadedSnapshot:
    if data[:len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
        raise FormatError("bad snapshot magic")
    pos = len(SNAPSHOT_MAGIC)

    tag, payload, pos = read_section(data, pos)
    if tag != b"H":
        raise FormatError("expected header section, found %r" % tag)
    cursor = 0
    version, cursor = decode_varint(payload, cursor)
    if version != SNAPSHOT_VERSION:
        raise FormatError("unsupported snapshot format version %d"
                          % version)
    generation, cursor = decode_varint(payload, cursor)
    last_seqno, cursor = decode_varint(payload, cursor)
    graph_count, cursor = decode_varint(payload, cursor)
    term_count, cursor = decode_varint(payload, cursor)

    tag, payload, pos = read_section(data, pos)
    if tag != b"D":
        raise FormatError("expected dictionary section, found %r" % tag)
    remap = _load_dictionary(payload, term_count, dictionary)
    table = DictionaryPayload(dictionary, payload, term_count) \
        if remap is None else None

    graphs: List[Graph] = []
    saw_end = False
    while pos < len(data):
        tag, payload, pos = read_section(data, pos)
        if tag == b"E":
            saw_end = True
            break
        if tag != b"G":
            raise FormatError("unexpected section %r" % tag)
        graphs.append(_load_graph(payload, dictionary, remap,
                                  term_count))
    if not saw_end:
        raise FormatError("snapshot end marker missing", len(data),
                          torn=True)
    if len(graphs) != graph_count:
        raise FormatError("header promises %d graphs, found %d"
                          % (graph_count, len(graphs)))
    return LoadedSnapshot(generation, last_seqno, graphs, table)


def _load_dictionary(payload: bytes, term_count: int,
                     dictionary: TermDictionary
                     ) -> Optional[np.ndarray]:
    """Intern the string table; returns old->new id remap (None =
    identity: the table landed on exactly its own ids)."""
    fresh = len(dictionary) == 0
    terms = []
    append = terms.append
    cursor = 0
    for _ in range(term_count):
        term, cursor = decode_term(payload, cursor)
        append(term)
    if cursor != len(payload):
        raise FormatError("%d trailing bytes after dictionary table"
                          % (len(payload) - cursor), cursor)
    remap = dictionary.encode_many(terms)
    if fresh:
        return None
    remap_arr = np.asarray(remap, dtype=np.int64)
    if np.array_equal(remap_arr, np.arange(term_count, dtype=np.int64)):
        return None
    return remap_arr


def _load_graph(payload: bytes, dictionary: TermDictionary,
                remap: Optional[np.ndarray], term_count: int) -> Graph:
    cursor = 0
    uri, cursor = decode_varstr(payload, cursor)
    version, cursor = decode_varint(payload, cursor)
    count, cursor = decode_varint(payload, cursor)
    columns = []
    for _ in range(3):
        length, cursor = decode_varint(payload, cursor)
        end = cursor + length
        if end > len(payload):
            raise FormatError("triple run exceeds graph section", cursor,
                              torn=True)
        a, b, c = decode_sorted_triples(payload[cursor:end], count)
        cursor = end
        if count and max(int(a[-1]), int(b.max()),
                         int(c.max())) >= term_count:
            raise FormatError("triple id beyond the %d-term dictionary"
                              % term_count)
        # Duplicate rows would make the deferred index under-count; the
        # columns are fully sorted, so duplicates must be adjacent.
        if count > 1 and bool(np.any((a[1:] == a[:-1])
                                     & (b[1:] == b[:-1])
                                     & (c[1:] == c[:-1]))):
            raise FormatError("index holds duplicate triples")
        if remap is not None:
            # Remapped ids need not preserve the sort order the grouped
            # index build relies on — restore it.
            a, b, c = remap[a], remap[b], remap[c]
            order = np.lexsort((c, b, a))
            a, b, c = a[order], b[order], c[order]
        columns.append((a, b, c))
    if cursor != len(payload):
        raise FormatError("%d trailing bytes after graph section"
                          % (len(payload) - cursor), cursor)
    return SnapshotGraph.deferred(uri, dictionary, columns, count,
                                  version)


def _nested_index(a: np.ndarray, b: np.ndarray, c: np.ndarray,
                  count: int) -> Dict[int, Dict[int, set]]:
    """Rebuild one nested ``{a: {b: {c, ...}}}`` index from sorted
    columns.  Sort order means every ``(a, b)`` group is a contiguous
    slice: group boundaries come from one vectorized comparison, the
    ``c`` buckets are built by C-level ``set()`` over list slices, and
    the inner dicts by ``zip`` — per-*group* Python work instead of
    per-triple ``setdefault`` probing.  The degenerate-but-common
    fanout-1 shapes (every ``(a, b)`` group a singleton; every ``a``
    under one ``b``) skip the slice machinery entirely: set and dict
    displays inside one comprehension are ~5x cheaper per group."""
    if count == 0:
        return {}
    change = np.flatnonzero((a[1:] != a[:-1]) | (b[1:] != b[:-1])) + 1
    groups = len(change) + 1
    if groups == count:
        # Every (a, b) pair occurs once: c buckets are singletons.
        buckets = [{x} for x in c.tolist()]
        a_heads = a
        a_keys = a.tolist()
        b_keys = b.tolist()
    else:
        starts = np.concatenate((np.zeros(1, dtype=np.int64), change))
        ends = np.concatenate((change,
                               np.asarray([count], dtype=np.int64)))
        c_list = c.tolist()
        buckets = list(map(set, map(c_list.__getitem__,
                                    map(slice, starts.tolist(),
                                        ends.tolist()))))
        if sum(map(len, buckets)) != count:
            raise FormatError("index holds duplicate triples")
        a_heads = a[starts]
        a_keys = a_heads.tolist()
        b_keys = b[starts].tolist()
    outer = np.flatnonzero(a_heads[1:] != a_heads[:-1]) + 1
    if len(outer) + 1 == groups:
        # Every a key has exactly one b key: inner dicts are singletons.
        return {ak: {bk: bucket}
                for ak, bk, bucket in zip(a_keys, b_keys, buckets)}
    group_starts = [0] + outer.tolist()
    group_ends = outer.tolist() + [groups]
    index: Dict[int, Dict[int, set]] = {}
    for gs, ge in zip(group_starts, group_ends):
        index[a_keys[gs]] = dict(zip(b_keys[gs:ge], buckets[gs:ge]))
    return index
