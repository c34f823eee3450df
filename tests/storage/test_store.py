"""GraphStore lifecycle: recovery, checkpointing, degradation, coherence."""

import os

import pytest

from repro.rdf.dataset import Dataset
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef
from repro.sparql import Engine
from repro.sparql.errors import (CorruptSnapshotError, EndpointError,
                                 StorageError, WalTruncatedError,
                                 classify_error, is_retryable)
from repro.storage import GraphStore
from repro.storage import snapshot as snapshot_module
from repro.storage.fileio import (StorageIO, corrupt_bytes, flip_bit,
                                  truncate_file)
from repro.storage.snapshot import (list_snapshots, load_snapshot,
                                    snapshot_path, write_snapshot)
from repro.storage.wal import list_wal_segments

URI = "http://example.org/g"


def triple(i):
    return (URIRef("http://x/s%d" % (i % 11)),
            URIRef("http://x/p%d" % (i % 4)),
            Literal("v%d" % i))


def populate(store, count, start=0):
    graph = store.graph(URI)
    for i in range(start, start + count):
        graph.add(*triple(i))
    return graph


class TestLifecycle:
    def test_reopen_from_wal_only(self, tmp_path):
        home = str(tmp_path)
        store = GraphStore(home, sync_every=1)
        store.open()
        graph = populate(store, 30)
        version = graph.version
        bag = set(graph.triples())
        store.close()

        store2 = GraphStore(home)
        report = store2.open()
        assert report.snapshot_generation is None
        assert report.replayed_records == 30
        recovered = store2.graph(URI)
        assert set(recovered.triples()) == bag
        assert recovered.version == version
        store2.close()

    def test_reopen_from_snapshot_plus_tail(self, tmp_path):
        home = str(tmp_path)
        with GraphStore(home, sync_every=1) as store:
            graph = populate(store, 20)
            store.checkpoint()
            graph.add(*triple(100))
            graph.remove(*triple(3))
            bag = set(graph.triples())
            version = graph.version

        with GraphStore(home) as store2:
            report = None
            recovered = store2.graph(URI)
            assert set(recovered.triples()) == bag
            assert recovered.version == version
            assert len(recovered) == 20

    def test_mutation_on_closed_store_fails_loudly(self, tmp_path):
        store = GraphStore(str(tmp_path))
        store.open()
        graph = populate(store, 2)
        store.close()
        with pytest.raises(StorageError):
            graph.add(*triple(50))
        # and the in-memory graph did not silently diverge
        assert len(graph) == 2

    def test_wal_failure_leaves_memory_and_disk_agreeing(self, tmp_path):
        from repro.storage.fileio import StorageIO

        class Exploding(StorageIO):
            def __init__(self):
                self.fail = False

            def _write(self, fobj, data, path):
                if self.fail:
                    raise OSError("disk gone")
                super()._write(fobj, data, path)

        io = Exploding()
        home = str(tmp_path)
        store = GraphStore(home, io=io, sync_every=1)
        store.open()
        graph = populate(store, 5)
        io.fail = True
        with pytest.raises(StorageError):
            graph.add(*triple(99))
        assert len(graph) == 5          # log-before-mutate held
        io.fail = False
        with pytest.raises(StorageError):
            graph.add(*triple(99))      # fail-stop: still refused
        store.close()

        with GraphStore(home) as store2:
            assert set(store2.graph(URI).triples()) \
                == set(graph.triples())

    def test_checkpoint_prunes_generations_and_segments(self, tmp_path):
        home = str(tmp_path)
        with GraphStore(home, sync_every=1, keep_generations=2) as store:
            populate(store, 10)
            for round_number in range(4):
                populate(store, 5, start=100 * (round_number + 1))
                store.checkpoint()
            snaps = list_snapshots(home)
            assert len(snaps) == 2
            assert snaps[-1][0] == 4
            # old WAL segments the retained snapshots cover are gone
            assert len(list_wal_segments(home)) <= 3

    def test_attach_and_checkpoint_adopts_existing_graphs(self, tmp_path):
        home = str(tmp_path)
        dictionary = TermDictionary()
        graph = Graph(URI, dictionary=dictionary)
        for i in range(12):
            graph.add(*triple(i))
        store = GraphStore(home)
        store.open()
        store.attach(graph)
        assert store.dictionary is dictionary
        store.checkpoint()           # existing contents become durable
        graph.add(*triple(50))       # teed from now on
        store.close()

        with GraphStore(home) as store2:
            assert set(store2.graph(URI).triples()) == set(graph.triples())

    def test_attach_rejects_foreign_dictionary_when_not_fresh(self, tmp_path):
        store = GraphStore(str(tmp_path))
        store.open()
        populate(store, 1)
        stranger = Graph("urn:other", dictionary=TermDictionary())
        with pytest.raises(StorageError):
            store.attach(stranger)
        store.close()


class TestIncrementalCheckpoint:
    """A checkpoint encodes only the dictionary terms interned since the
    previous one (or since a load that kept every id), and still writes
    exactly the bytes a from-scratch encode gives."""

    def checkpoint(self, store, home, scratch, monkeypatch):
        """Checkpoint; returns how many terms it encoded, after checking
        the snapshot against a from-scratch write of the same state."""
        calls = []
        encode = snapshot_module.encode_term
        with monkeypatch.context() as patch:
            patch.setattr(snapshot_module, "encode_term",
                          lambda out, term: calls.append(term)
                          or encode(out, term))
            generation = store.checkpoint()
        path = snapshot_path(home, generation)
        seqno = load_snapshot(path, TermDictionary()).last_seqno
        fresh_dir = str(scratch / ("fresh%d" % generation))
        os.makedirs(fresh_dir)
        fresh = write_snapshot(StorageIO(), fresh_dir, generation,
                               list(store.graphs().values()),
                               store.dictionary, seqno)
        with open(path, "rb") as got, open(fresh, "rb") as want:
            assert got.read() == want.read()
        return len(calls)

    def test_interleaved_adds_checkpoints_and_reopens(self, tmp_path,
                                                      monkeypatch):
        home = str(tmp_path / "store")
        run = [0]

        def step(store, count):
            before = len(store.dictionary)
            populate(store, count, start=run[0])
            run[0] += count
            new_terms = len(store.dictionary) - before
            return new_terms, self.checkpoint(store, home, tmp_path,
                                              monkeypatch)

        store = GraphStore(home)
        store.open()
        new_terms, encoded = step(store, 30)
        assert encoded == len(store.dictionary)  # the first encodes all
        for count in (5, 0, 12):
            new_terms, encoded = step(store, count)
            assert encoded == new_terms == count
        store.close()

        # A fresh dictionary takes the identity mapping: seeded.
        store = GraphStore(home)
        store.open()
        new_terms, encoded = step(store, 9)
        assert encoded == new_terms == 9
        store.close()

        # A shared dictionary holding other terms remaps: re-encoded once.
        shared = TermDictionary()
        shared.encode(URIRef("http://elsewhere/a"))
        shared.encode(Literal("elsewhere"))
        store = GraphStore(home, dictionary=shared)
        store.open()
        new_terms, encoded = step(store, 4)
        assert encoded == len(shared)
        new_terms, encoded = step(store, 3)
        assert encoded == new_terms == 3
        store.close()

        # Reopened into that same dictionary every id lands on itself.
        store = GraphStore(home, dictionary=shared)
        store.open()
        new_terms, encoded = step(store, 6)
        assert encoded == new_terms == 6
        store.close()


class TestDegradation:
    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        home = str(tmp_path)
        with GraphStore(home, sync_every=1) as store:
            graph = populate(store, 15)
            store.checkpoint()
            graph.add(*triple(200))
            store.checkpoint()
            bag = set(graph.triples())
        newest = list_snapshots(home)[-1][1]
        flip_bit(newest, os.path.getsize(newest) // 2)

        store2 = GraphStore(home)
        report = store2.open()
        assert len(report.corrupt_snapshots) == 1
        assert report.snapshot_generation == 1
        # the WAL tail past generation 1 replays, so nothing was lost
        assert set(store2.graph(URI).triples()) == bag
        assert os.path.exists(newest + ".corrupt")
        store2.close()

        # quarantine means the next open is clean
        with GraphStore(home) as store3:
            assert set(store3.graph(URI).triples()) == bag

    def test_all_snapshots_corrupt_fails_safe(self, tmp_path):
        # Retention covers falling back ONE generation with zero loss;
        # losing every retained snapshot leaves WAL records that nothing
        # vouches for — recovery must refuse, never serve the partial
        # (here: empty) graph the surviving WAL tail alone describes.
        home = str(tmp_path)
        with GraphStore(home, sync_every=1) as store:
            populate(store, 8)
            store.checkpoint()
        for _, path in list_snapshots(home):
            truncate_file(path, 10)
        store2 = GraphStore(home)
        with pytest.raises(StorageError):
            store2.open()

    def test_mid_log_hole_surfaces_classified_error(self, tmp_path):
        home = str(tmp_path)
        with GraphStore(home, sync_every=1) as store:
            populate(store, 20)
        path = list_wal_segments(home)[0][1]
        corrupt_bytes(path, os.path.getsize(path) // 2, b"\xde\xad" * 6)
        store2 = GraphStore(home)
        with pytest.raises(WalTruncatedError) as exc_info:
            store2.open()
        assert 0 < exc_info.value.recovered_seqno < 20
        assert not exc_info.value.retryable

    def test_torn_tail_recovers_silently(self, tmp_path):
        home = str(tmp_path)
        with GraphStore(home, sync_every=1) as store:
            populate(store, 10)
        path = list_wal_segments(home)[-1][1]
        truncate_file(path, os.path.getsize(path) - 4)
        store2 = GraphStore(home)
        report = store2.open()
        assert report.truncated_bytes > 0
        assert len(store2.graph(URI)) == 9
        store2.close()


class TestCacheCoherence:
    def build_engine(self, store):
        dataset = Dataset()
        dataset.add_graph(store.graph(URI))
        return Engine(dataset)

    def test_fingerprint_survives_clean_reopen(self, tmp_path):
        home = str(tmp_path)
        store = GraphStore(home, sync_every=1)
        store.open()
        populate(store, 25)
        before = self.build_engine(store)._fingerprint()
        store.close()

        store2 = GraphStore(home)
        store2.open()
        after = self.build_engine(store2)._fingerprint()
        assert after == before
        store2.close()

    def test_fingerprint_diverges_after_lossy_recovery(self, tmp_path):
        # A torn tail rolls back acknowledged state; a ResultCache keyed
        # on the pre-crash fingerprint must NOT hit on the recovered
        # store, or it would serve rows for data that no longer exists.
        home = str(tmp_path)
        store = GraphStore(home, sync_every=1)
        store.open()
        populate(store, 10)
        lossy = self.build_engine(store)._fingerprint()
        store.close()

        path = list_wal_segments(home)[-1][1]
        truncate_file(path, os.path.getsize(path) - 4)
        store2 = GraphStore(home)
        report = store2.open()
        assert report.truncated_bytes > 0
        recovered = self.build_engine(store2)._fingerprint()
        assert recovered != lossy
        # ... and it differs from every fingerprint the lost suffix of
        # the history could have produced (version strictly larger).
        assert store2.graph(URI).version > 10
        store2.close()


class TestErrorClassification:
    def test_oserror_maps_to_storage_error(self):
        classified = classify_error(OSError("no space left on device"))
        assert isinstance(classified, StorageError)
        assert not is_retryable(classified)

    def test_taxonomy_shape(self):
        assert issubclass(StorageError, EndpointError)
        assert issubclass(CorruptSnapshotError, StorageError)
        assert issubclass(WalTruncatedError, StorageError)
        assert StorageError.retryable is False
        err = WalTruncatedError("hole", recovered_seqno=41)
        assert classify_error(err) is err
        assert err.recovered_seqno == 41
