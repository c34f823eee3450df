"""Crash matrix: kill the store at every IO boundary, prove recovery.

Two tiers, both deterministic and ``PYTHONHASHSEED``-independent:

* **Byte-level, exhaustive** — a tiny workload (open, adds, checkpoint,
  more mutations, close) is recorded once through :class:`CrashingIO`,
  then re-run killing the process at *every byte boundary of every
  write* and before every rename/remove/truncate/fsync.  Each recovered
  store must hold exactly a prefix of the mutation sequence — never a
  mixed, reordered, or invented state — and must remain writable.

* **Case-study, op-level** — the paper's three case studies run over a
  store-backed dataset.  The workload (attach, checkpoint, a mutation
  sequence that changes query answers) is crashed at every mutating op
  (sampled write partials), recovered with the production IO, and the
  recovered graphs are queried across all three planes (reference,
  rows, vectorized).  All planes must be
  bag-identical, and the common bag must equal one of the pre-/post-
  mutation states of the sequence — bag-identity to a state that
  *existed*, which is the ISSUE's recovery contract.
"""

import itertools

import pytest

from repro.data import DBLP_URI, DBPEDIA_URI
from repro.data.loader import build_dataset
from repro.rdf.dataset import Dataset
from repro.rdf.graph import Graph
from repro.rdf.terms import Literal, URIRef
from repro.sparql import Engine
from repro.storage import GraphStore
from repro.storage.fileio import CrashingIO, CrashPoint, SimulatedCrash, \
    StorageIO
from repro.workload.case_studies import CASE_STUDIES

URI = "http://example.org/g"


def named_bag(result):
    """Order-free, variable-name-keyed bag of a result set."""
    return sorted(
        tuple(sorted((var, repr(term))
                     for var, term in zip(result.variables, row)))
        for row in result.rows)


# ----------------------------------------------------------------------
# Tier 1: exhaustive byte-level matrix on a tiny workload
# ----------------------------------------------------------------------
TRIPLES = [(URIRef("http://x/s%d" % i),
            URIRef("http://x/p%d" % (i % 2)),
            Literal("value %d" % i)) for i in range(6)]

# (op, triple) mutation sequence; the checkpoint sits between them.
BEFORE_CHECKPOINT = [("add", t) for t in TRIPLES[:4]]
AFTER_CHECKPOINT = [("add", TRIPLES[4]), ("remove", TRIPLES[1]),
                    ("add", TRIPLES[5])]


def tiny_workload(home, io):
    store = GraphStore(home, io=io, sync_every=1)
    store.open()
    graph = store.graph(URI)
    for op, t in BEFORE_CHECKPOINT:
        graph.add(*t) if op == "add" else graph.remove(*t)
    store.checkpoint()
    for op, t in AFTER_CHECKPOINT:
        graph.add(*t) if op == "add" else graph.remove(*t)
    store.close()


def prefix_states():
    """Every bag the mutation sequence ever passes through, in order."""
    states = [frozenset()]
    current = set()
    for op, t in BEFORE_CHECKPOINT + AFTER_CHECKPOINT:
        current.add(t) if op == "add" else current.discard(t)
        states.append(frozenset(current))
    return states


def recover(home):
    store = GraphStore(home)
    store.open()
    graph = store.graphs().get(URI)
    bag = frozenset(graph.triples()) if graph is not None else frozenset()
    return store, bag


class TestByteLevelMatrix:
    def test_every_crash_point_recovers_to_a_prefix_state(self, tmp_path):
        recorder = CrashingIO()
        tiny_workload(str(tmp_path / "record"), recorder)
        assert len(recorder.ops) > 15          # the seam is actually hot
        allowed = prefix_states()
        tested = 0
        for index, (kind, _path, size) in enumerate(recorder.ops):
            partials = range(size + 1) if kind == "write" else (0,)
            for partial in partials:
                home = str(tmp_path / ("crash-%d-%d" % (index, partial)))
                with pytest.raises(SimulatedCrash):
                    tiny_workload(home,
                                  CrashingIO(CrashPoint(index, partial)))
                store, bag = recover(home)
                assert bag in allowed, (index, partial, sorted(bag))
                # recovery is idempotent *and* leaves a live store: the
                # next mutation must log and survive another reopen
                probe = (URIRef("http://x/probe"),
                         URIRef("http://x/p"), Literal("alive"))
                store.graph(URI).add(*probe)
                store.close()
                store2, bag2 = recover(home)
                assert bag2 == bag | {probe}, (index, partial)
                store2.close()
                tested += 1
        assert tested > 300                    # genuinely a matrix

    def test_crash_point_past_the_workload_never_fires(self, tmp_path):
        io = CrashingIO(CrashPoint(10 ** 6, 0))
        tiny_workload(str(tmp_path), io)
        assert not io.crashed


# ----------------------------------------------------------------------
# Tier 2: case-study matrix across all four execution planes
# ----------------------------------------------------------------------
SCALE = 0.02
STARRING = URIRef("http://dbpedia.org/property/starring")
GENRE = URIRef("http://dbpedia.org/ontology/genre")


@pytest.fixture(scope="module")
def dataset():
    # use_cache=False: this suite mutates the graphs between crash runs
    # and must not leak into the memoized datasets other suites share.
    return build_dataset(scale=SCALE, include_yago=False, use_cache=False)


@pytest.fixture(scope="module")
def mutations(dataset):
    """A deterministic mutation sequence that changes query answers."""
    dbpedia = dataset.graph(DBPEDIA_URI)
    dblp = dataset.graph(DBLP_URI)
    starring = min(dbpedia.triples(None, STARRING, None), key=repr)
    dblp_triple = min(itertools.islice(dblp.triples(), 64), key=repr)
    return [
        ("remove", DBPEDIA_URI, starring),
        ("add", DBPEDIA_URI, (starring[0], GENRE,
                              URIRef("http://dbpedia.org/resource/"
                                     "Crash_test_drama"))),
        ("remove", DBLP_URI, dblp_triple),
    ]


def apply_mutation(dataset, mutation):
    op, uri, t = mutation
    graph = dataset.graph(uri)
    graph.add(*t) if op == "add" else graph.remove(*t)


def revert_all(dataset, mutations):
    for graph in dataset:
        graph._store = None
    for op, uri, t in reversed(mutations):
        graph = dataset.graph(uri)
        graph.remove(*t) if op == "add" else graph.add(*t)


def case_study_bags(dataset):
    planes = {
        "reference": Engine(dataset, columnar=False),
        "rows": Engine(dataset, vectorize=False),
        "vectorized": Engine(dataset, vectorize=True),
    }
    bags = {}
    for cs in CASE_STUDIES:
        per_plane = {
            name: named_bag(engine.query(cs.expert_sparql,
                                         default_graph_uri=cs.graph_uri))
            for name, engine in planes.items()}
        distinct = {tuple(map(tuple, bag)) for bag in per_plane.values()}
        assert len(distinct) == 1, \
            "planes disagree on %s" % cs.key
        bags[cs.key] = per_plane["reference"]
    return bags


def store_workload(home, io, dataset, mutations):
    store = GraphStore(home, io=io, sync_every=1)
    store.open()
    store.attach(list(dataset))
    store.checkpoint()
    for mutation in mutations:
        apply_mutation(dataset, mutation)
    store.close()


@pytest.fixture(scope="module")
def allowed_states(dataset, mutations):
    """Reference bags for the empty store and every mutation prefix."""
    empty = Dataset()
    shared = dataset.graph(DBPEDIA_URI).dictionary
    for uri in (DBPEDIA_URI, DBLP_URI):
        empty.add_graph(Graph(uri, dictionary=shared))
    states = [case_study_bags(empty), case_study_bags(dataset)]
    for index, mutation in enumerate(mutations):
        apply_mutation(dataset, mutation)
        states.append(case_study_bags(dataset))
    revert_all(dataset, mutations)
    # the sequence is meaningful only if it actually moves the answers
    assert states[1] != states[-1]
    return states


class TestCaseStudyMatrix:
    def test_recovery_is_bag_identical_on_every_plane(
            self, tmp_path, dataset, mutations, allowed_states):
        recorder = CrashingIO()
        store_workload(str(tmp_path / "record"), recorder, dataset,
                       mutations)
        revert_all(dataset, mutations)

        points = []
        for index, (kind, _path, size) in enumerate(recorder.ops):
            points.append(CrashPoint(index, 0))
            if kind == "write" and size > 1:
                points.append(CrashPoint(index, size // 2))
        # keep the matrix affordable: every op once, plus mid-write
        # partials; the byte-exhaustive tier already covers the rest
        assert len(points) >= 20

        for point in points:
            home = str(tmp_path / ("crash-%d-%d"
                                   % (point.op_index, point.partial)))
            with pytest.raises(SimulatedCrash):
                store_workload(home, CrashingIO(point), dataset, mutations)
            revert_all(dataset, mutations)

            store = GraphStore(home, io=StorageIO())
            store.open()
            recovered = Dataset()
            for uri in (DBPEDIA_URI, DBLP_URI):
                graph = store.graphs().get(uri)
                if graph is None:
                    graph = Graph(uri, dictionary=store.dictionary)
                recovered.add_graph(graph)
            bags = case_study_bags(recovered)   # asserts 4-plane identity
            assert bags in allowed_states, point
            store.close()

        # the shared dataset came back pristine for the other suites
        assert case_study_bags(dataset) == allowed_states[1]
