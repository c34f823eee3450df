"""The durable graph store: recovery, checkpointing, WAL teeing.

:class:`GraphStore` owns a directory of snapshot generations
(``snapshot-NNNNNN.snap``) and WAL segments (``wal-<seqno>.log``) and
stitches the other storage modules into the lifecycle the engine sees:

* :meth:`GraphStore.open` — recover: load the newest *valid* snapshot
  (corrupt generations are quarantined as ``*.corrupt`` and the previous
  one stands in), replay the WAL tail past it, truncate a torn final
  record, and start a fresh segment.  A mid-log hole raises
  :class:`~repro.sparql.errors.WalTruncatedError` instead of serving a
  silently-wrong graph.
* **teeing** — an attached :class:`~repro.rdf.graph.Graph` calls
  :meth:`_record_add` / :meth:`_record_remove` *before* touching its
  indexes, so a failed append leaves memory and disk agreeing (and the
  WAL is fail-stop after the first failure).
* :meth:`GraphStore.checkpoint` — fold the log into a new snapshot
  generation (atomic rename), roll the WAL, and prune generations and
  segments nothing retained still needs.

Cache coherence across restarts: graph ``version`` counters are
persisted in both snapshot and WAL records and restored on recovery, so
:class:`~repro.sparql.engine.Engine` fingerprints — and therefore
``ResultCache`` and plan-cache keys — stay valid.  When a torn tail cost
acknowledged-but-unsynced records, every recovered version is bumped past
anything the lost tail could have produced, so a cache primed before the
crash can never serve results for state that silently rolled back.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..rdf.dictionary import TermDictionary
from ..rdf.graph import Graph
from ..rdf.ntriples import parse_line, serialize_triple
from ..sparql.errors import StorageError
from .fileio import StorageIO
from .snapshot import (DictionaryPayload, list_snapshots, load_snapshot,
                       write_snapshot)
from .wal import OP_ADD, OP_REMOVE, WriteAheadLog, list_wal_segments, \
    replay_wal

__all__ = ["GraphStore", "RecoveryReport"]


class RecoveryReport:
    """What :meth:`GraphStore.open` found and did."""

    def __init__(self):
        self.created = False                 # nothing durable existed yet
        self.snapshot_generation: Optional[int] = None
        self.snapshot_seqno = 0              # last seqno inside the snapshot
        self.replayed_records = 0
        self.last_seqno = 0
        self.truncated_bytes = 0             # torn WAL tail dropped
        self.resynced_bytes = 0              # benign mid-log garbage skipped
        self.corrupt_snapshots: List[str] = []   # quarantined paths
        self.graphs: List[str] = []          # recovered graph URIs

    def __repr__(self):
        return ("RecoveryReport(generation=%r, replayed=%d, last_seqno=%d, "
                "truncated_bytes=%d, corrupt_snapshots=%d)"
                % (self.snapshot_generation, self.replayed_records,
                   self.last_seqno, self.truncated_bytes,
                   len(self.corrupt_snapshots)))


class GraphStore:
    """A directory-backed durable home for a set of graphs.

    >>> import tempfile
    >>> from repro.rdf.terms import URIRef
    >>> with tempfile.TemporaryDirectory() as home:
    ...     store = GraphStore(home)
    ...     report = store.open()
    ...     g = store.graph("http://example.org/g")
    ...     _ = g.add(URIRef("http://e/s"), URIRef("http://e/p"),
    ...               URIRef("http://e/o"))
    ...     store.close()                  # flushed: the add is durable
    ...     store2 = GraphStore(home)
    ...     report2 = store2.open()
    ...     len(store2.graph("http://example.org/g"))
    1

    Mutations on attached graphs are logged before they touch memory;
    :meth:`checkpoint` folds the log into a snapshot.  ``sync_every``
    batches WAL fsyncs (1 = synchronous); ``keep_generations`` snapshot
    generations are retained so recovery can fall back past a corrupt
    newest generation without losing WAL coverage.
    """

    def __init__(self, directory: str, io: Optional[StorageIO] = None,
                 sync_every: int = 64, keep_generations: int = 2,
                 dictionary: Optional[TermDictionary] = None):
        if keep_generations < 1:
            raise ValueError("keep_generations must be >= 1")
        self.directory = directory
        self._io = io if io is not None else StorageIO()
        self._sync_every = sync_every
        self._keep_generations = keep_generations
        self.dictionary = dictionary if dictionary is not None \
            else TermDictionary()
        self._graphs: Dict[str, Graph] = {}
        self._wal: Optional[WriteAheadLog] = None
        self._gen_seqnos: Dict[int, int] = {}   # generation -> last seqno
        # The dictionary section as encoded so far (see checkpoint).
        self._payload: Optional[DictionaryPayload] = None
        self._lock = threading.Lock()
        self.counters = {
            "wal_records": 0, "wal_fsyncs": 0, "wal_bytes": 0,
            "checkpoints": 0, "recoveries": 0, "replayed_records": 0,
            "wal_truncated_bytes": 0, "wal_resynced_bytes": 0,
            "snapshots_quarantined": 0, "segments_pruned": 0,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def open(self) -> RecoveryReport:
        """Recover the directory's durable state and start logging."""
        if self._wal is not None:
            raise StorageError("store is already open")
        os.makedirs(self.directory, exist_ok=True)
        report = RecoveryReport()

        # Leftover ``*.tmp`` files are snapshots whose write never
        # reached its atomic rename; they are garbage by construction.
        for name in sorted(os.listdir(self.directory)):
            if name.endswith(".tmp"):
                try:
                    self._io.remove(os.path.join(self.directory, name))
                except OSError:
                    pass

        from ..sparql.errors import CorruptSnapshotError
        loaded = None
        for generation, path in reversed(list_snapshots(self.directory)):
            try:
                loaded = load_snapshot(path, self.dictionary)
                break
            except CorruptSnapshotError:
                # Quarantine and fall back to the previous generation;
                # WAL retention keeps every segment the older snapshot
                # needs, so nothing is lost by stepping back.
                report.corrupt_snapshots.append(path)
                self.counters["snapshots_quarantined"] += 1
                try:
                    self._io.replace(path, path + ".corrupt")
                except OSError:
                    pass
        if loaded is not None:
            report.snapshot_generation = loaded.generation
            report.snapshot_seqno = loaded.last_seqno
            self._gen_seqnos[loaded.generation] = loaded.last_seqno
            self._payload = loaded.payload
            for graph in loaded.graphs:
                self._graphs[graph.uri] = graph
        elif not list_wal_segments(self.directory):
            report.created = True

        replay = replay_wal(self.directory, report.snapshot_seqno,
                            io=self._io)
        if replay.error is not None:
            raise replay.error
        for record in replay.records:
            graph = self._graphs.get(record.graph_uri)
            if graph is None:
                graph = Graph(record.graph_uri,
                              dictionary=self.dictionary)
                self._graphs[record.graph_uri] = graph
            s, p, o = parse_line(record.triple_line)
            if record.op == OP_ADD:
                graph.add(s, p, o)
            else:
                graph.remove(s, p, o)
            # Replay restores the exact pre-crash version counter so
            # cache fingerprints taken before the restart stay honest.
            graph.version = record.version

        if replay.truncated_bytes:
            # A torn tail may have cost acknowledged records.  Each lost
            # record occupied at least one byte, so bumping every version
            # past ``truncated_bytes`` guarantees no fingerprint ever
            # equals one the lost tail could have produced — a cache
            # primed pre-crash cannot serve the rolled-back state.
            for graph in self._graphs.values():
                graph.version += replay.truncated_bytes + 1

        report.replayed_records = len(replay.records)
        report.last_seqno = replay.last_seqno
        report.truncated_bytes = replay.truncated_bytes
        report.resynced_bytes = replay.resynced_bytes
        report.graphs = sorted(self._graphs)
        self.counters["recoveries"] += 1
        self.counters["replayed_records"] += len(replay.records)
        self.counters["wal_truncated_bytes"] += replay.truncated_bytes
        self.counters["wal_resynced_bytes"] += replay.resynced_bytes

        self._wal = WriteAheadLog(self._io, self.directory,
                                  replay.last_seqno + 1,
                                  sync_every=self._sync_every)
        for graph in self._graphs.values():
            graph._store = self
        return report

    def close(self) -> None:
        """Flush and stop logging.  Attached graphs stay attached: a
        mutation after close fails with a classified
        :class:`~repro.sparql.errors.StorageError` rather than silently
        skipping the log."""
        wal, self._wal = self._wal, None
        if wal is not None:
            try:
                wal.close()
            finally:
                self._fold_wal_counters(wal)

    def __enter__(self) -> "GraphStore":
        if self._wal is None:
            self.open()
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def _fold_wal_counters(self, wal: WriteAheadLog) -> None:
        self.counters["wal_records"] += wal.records
        self.counters["wal_fsyncs"] += wal.fsyncs
        self.counters["wal_bytes"] += wal.bytes_written

    # ------------------------------------------------------------------
    # Graph access
    # ------------------------------------------------------------------
    @property
    def last_seqno(self) -> int:
        wal = self._wal
        return wal.last_seqno if wal is not None else 0

    def graphs(self) -> Dict[str, Graph]:
        """URI -> graph for everything the store owns (read-only view)."""
        return dict(self._graphs)

    def graph(self, uri: str) -> Graph:
        """The store's graph for ``uri``, created and attached if new."""
        graph = self._graphs.get(uri)
        if graph is None:
            graph = Graph(uri, dictionary=self.dictionary)
            self._graphs[uri] = graph
            graph._store = self
        return graph

    def attach(self, target: Union[Graph, Iterable[Graph]]) -> None:
        """Adopt pre-built graph(s): future mutations tee into the WAL.

        Existing contents are *not* retro-logged — call
        :meth:`checkpoint` after attaching to make them durable.  All
        attached graphs must share the store's dictionary; attaching to
        an empty fresh store adopts the graph's dictionary instead.
        """
        graphs = [target] if isinstance(target, Graph) else list(target)
        for graph in graphs:
            if graph.dictionary is not self.dictionary:
                if not self._graphs and len(self.dictionary) == 0:
                    self.dictionary = graph.dictionary
                else:
                    raise StorageError(
                        "graph %r does not share the store dictionary"
                        % graph.uri)
            existing = self._graphs.get(graph.uri)
            if existing is not None and existing is not graph:
                raise StorageError("store already owns a graph named %r"
                                   % graph.uri)
            self._graphs[graph.uri] = graph
            graph._store = self

    # ------------------------------------------------------------------
    # WAL teeing (called by Graph.add_ids / Graph.remove, pre-mutation)
    # ------------------------------------------------------------------
    def _record_add(self, graph: Graph, s: int, p: int, o: int,
                    version_after: int) -> None:
        self._append(OP_ADD, graph.uri, s, p, o, version_after)

    def _record_remove(self, graph: Graph, s: int, p: int, o: int,
                       version_after: int) -> None:
        self._append(OP_REMOVE, graph.uri, s, p, o, version_after)

    def _append(self, op: str, uri: str, s: int, p: int, o: int,
                version_after: int) -> None:
        wal = self._wal
        if wal is None:
            raise StorageError(
                "graph %r is attached to a closed store" % uri)
        decode = self.dictionary.decode
        line = serialize_triple((decode(s), decode(p), decode(o)))
        with self._lock:
            try:
                wal.append(op, uri, line, version_after)
            except OSError as exc:
                raise StorageError("write-ahead log append failed: %s"
                                   % exc) from exc

    def flush(self) -> None:
        """fsync every acknowledged WAL record."""
        wal = self._wal
        if wal is None:
            return
        with self._lock:
            try:
                wal.flush()
            except OSError as exc:
                raise StorageError("write-ahead log flush failed: %s"
                                   % exc) from exc

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Fold the WAL into a fresh snapshot generation; returns it.

        Only the terms interned since the previous checkpoint (or since
        the loaded snapshot) are encoded into the dictionary section.
        Write order is crash-safe end to end: the snapshot publishes via
        atomic rename *before* the WAL rolls, and old segments are pruned
        only after no retained snapshot could need them — a crash between
        any two steps recovers from whichever side completed.
        """
        wal = self._wal
        if wal is None:
            raise StorageError("store is not open")
        with self._lock:
            try:
                wal.flush()
                last = wal.last_seqno
                existing = list_snapshots(self.directory)
                generation = existing[-1][0] + 1 if existing else 1
                if self._payload is None \
                        or self._payload.dictionary is not self.dictionary:
                    self._payload = DictionaryPayload(self.dictionary)
                write_snapshot(self._io, self.directory, generation,
                               list(self._graphs.values()),
                               self.dictionary, last, self._payload)
            except OSError as exc:
                raise StorageError("checkpoint failed: %s" % exc) from exc
            self._gen_seqnos[generation] = last
            wal.close()
            self._fold_wal_counters(wal)
            self._wal = WriteAheadLog(self._io, self.directory, last + 1,
                                      sync_every=self._sync_every)
            self.counters["checkpoints"] += 1
            self._prune()
        return generation

    def _prune(self) -> None:
        """Drop snapshot generations beyond ``keep_generations`` and WAL
        segments entirely covered by the oldest retained snapshot."""
        snaps = list_snapshots(self.directory)
        doomed = snaps[:-self._keep_generations]
        for generation, path in doomed:
            try:
                self._io.remove(path)
            except OSError:
                continue
            self._gen_seqnos.pop(generation, None)
        retained = snaps[len(doomed):]
        floor = None
        for generation, _ in retained:
            seqno = self._gen_seqnos.get(generation)
            if seqno is None:
                return      # unknown coverage: prune nothing (safe)
            floor = seqno if floor is None else min(floor, seqno)
        if floor is None:
            return
        segments = list_wal_segments(self.directory)
        for index, (start, path) in enumerate(segments[:-1]):
            if segments[index + 1][0] <= floor + 1:
                try:
                    self._io.remove(path)
                    self.counters["segments_pruned"] += 1
                except OSError:
                    pass

    def __repr__(self):
        return "GraphStore(%r, %d graphs, last_seqno=%d)" % (
            self.directory, len(self._graphs), self.last_seqno)
