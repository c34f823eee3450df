"""An indexed, in-memory RDF graph, dictionary-encoded.

This is the storage substrate beneath the SPARQL engine (the role Virtuoso
plays in the paper).  Terms are interned into a :class:`TermDictionary` at
insertion time and the SPO/POS/OSP indexes are nested dictionaries of dense
*integer ids*, so that a triple pattern with any combination of bound
positions can be answered by direct index lookups on ints — no term-object
hashing on the hot path.  The evaluator consumes the id-level interface
(:meth:`Graph.triples_ids`); the term-level interface (:meth:`Graph.triples`
etc.) decodes at the boundary and is what loaders, serializers, and
exploration operators use.

The graph also exposes per-predicate statistics
(:meth:`Graph.predicate_profile`) used by the join-order optimizer, and
lazily-built *sorted runs* — sorted arrays of ids per ``(s, p)``, ``(p, o)``
and ``p`` — that the evaluator's multiway-intersection join steps iterate
as sorted seeds, probing the companion index sets for elimination
(:meth:`Graph.objects_run` and friends).  Runs are memoized like the
profiles and invalidated on mutation.  :func:`gallop` and
:func:`intersect_runs` are the classic binary-search formulation of the
same intersection — the property-tested reference the hash-probe step is
held equivalent to, exported for consumers that have runs but no set
views.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, \
    Tuple

from .dictionary import TermDictionary, shared_dictionary
from .terms import Literal, Node, Triple, URIRef

#: An id-level triple (subject id, predicate id, object id).
IdTriple = Tuple[int, int, int]

#: An immutable sorted run of term ids (strictly increasing).
SortedRun = Tuple[int, ...]

#: Objects sampled per predicate when building a predicate synopsis.
SYNOPSIS_SAMPLE = 64


def gallop(run: Sequence[int], value: int, lo: int = 0) -> int:
    """Index of the first element ``>= value`` in ``run[lo:]``.

    Gallops (doubling probe distance) from ``lo`` before binary-searching
    the bracketed range, so an intersection that walks two runs of very
    different lengths pays O(log gap) per probe instead of O(log n) — the
    standard exponential-search building block of merge-based set
    intersection.
    """
    n = len(run)
    if lo >= n or run[lo] >= value:
        return lo
    step = 1
    hi = lo + 1
    while hi < n and run[hi] < value:
        lo = hi
        step <<= 1
        hi += step
    return bisect_left(run, value, lo + 1, min(hi + 1, n))


def intersect_runs(runs: Sequence[Sequence[int]]) -> List[int]:
    """K-way intersection of sorted id runs via galloping search.

    Iterates the shortest run and eliminates candidates against the others
    leapfrog-style: each run keeps a cursor that only moves forward, so the
    total work is bounded by the shortest run's length times a logarithmic
    gallop per longer run.  This is the comparison-based reference for the
    evaluator's intersection steps (which produce the same candidates in
    the same ascending order via hash probes against the index sets —
    faster in CPython); use it where only sorted runs are available.
    Returns the intersection in ascending id order.
    """
    if not runs:
        return []
    runs = sorted(runs, key=len)
    base = runs[0]
    others = runs[1:]
    if not others:
        return list(base)
    out: List[int] = []
    append = out.append
    cursors = [0] * len(others)
    for value in base:
        keep = True
        for k, run in enumerate(others):
            pos = gallop(run, value, cursors[k])
            if pos >= len(run):
                return out  # this run is exhausted: nothing more matches
            cursors[k] = pos
            if run[pos] != value:
                keep = False
                break
        if keep:
            append(value)
    return out


class Graph:
    """A set of RDF triples with id-keyed SPO/POS/OSP indexes.

    Parameters
    ----------
    uri:
        The graph URI used in ``FROM`` clauses, e.g. ``http://dbpedia.org``.
    dictionary:
        The term dictionary used for encoding.  Defaults to the process-wide
        shared dictionary so that ids are join-compatible across graphs
        (required when several graphs live in one :class:`~.dataset.Dataset`).
    """

    def __init__(self, uri: str = "urn:default",
                 dictionary: Optional[TermDictionary] = None):
        self.uri = uri
        self.dictionary = dictionary if dictionary is not None \
            else shared_dictionary()
        # index[s][p] -> set of o ; nested dicts of sets, all int ids.
        self._spo: Dict[int, Dict[int, Set[int]]] = {}
        self._pos: Dict[int, Dict[int, Set[int]]] = {}
        self._osp: Dict[int, Dict[int, Set[int]]] = {}
        self._size = 0
        # Memoized per-predicate profiles; invalidated on mutation.
        self._profiles: Dict[int, Tuple[int, int, int]] = {}
        # Memoized sorted runs for the intersection join steps; invalidated
        # on mutation exactly like the profiles.  ``sorted_runs_built``
        # counts lazy builds (monotone), so callers can attribute build
        # cost to the query that triggered it.
        self._object_runs: Dict[Tuple[int, int], SortedRun] = {}
        self._subject_runs: Dict[Tuple[int, int], SortedRun] = {}
        self._predicate_subject_runs: Dict[int, SortedRun] = {}
        self._predicate_subject_sets: Dict[int, frozenset] = {}
        self._so_pair_lists: Dict[int, list] = {}
        self.sorted_runs_built = 0
        # Statistics synopses for the cost-based planner: small
        # per-predicate synopses with sampled object fan-outs.  Lazily
        # built and invalidated on mutation like the sorted runs;
        # ``synopses_built`` counts lazy builds and ``version`` is a
        # monotone mutation counter that statistics consumers snapshot to
        # detect staleness (an equal-size replace changes ``version``
        # even though ``len`` is unchanged).
        self._pred_synopses: Dict[int, tuple] = {}
        self.synopses_built = 0
        self.version = 0
        # Attached durable store (see repro.storage): when set, every
        # mutation is teed into its write-ahead log *before* the indexes
        # change, so a failed append leaves memory and disk agreeing.
        self._store = None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, subject: Node, predicate: Node, obj: Node) -> bool:
        """Add a triple; returns True if it was new."""
        encode = self.dictionary.encode
        return self.add_ids(encode(subject), encode(predicate), encode(obj))

    def add_ids(self, s: int, p: int, o: int) -> bool:
        """Add a triple given already-encoded ids; returns True if new."""
        by_pred = self._spo.get(s)
        objs = by_pred.get(p) if by_pred is not None else None
        if objs is not None and o in objs:
            return False
        if self._store is not None:
            # Log before mutating: if the append raises, no index has
            # changed and memory still agrees with the durable log.
            self._store._record_add(self, s, p, o, self.version + 1)
        if objs is None:
            if by_pred is None:
                by_pred = self._spo[s] = {}
            objs = by_pred[p] = set()
        objs.add(o)
        self._pos.setdefault(p, {}).setdefault(o, set()).add(s)
        self._osp.setdefault(o, {}).setdefault(s, set()).add(p)
        self._size += 1
        self.version += 1
        if self._profiles:
            self._profiles.pop(p, None)
        self._invalidate_runs(s, p, o)
        return True

    def add_triple(self, triple: Triple) -> bool:
        return self.add(*triple)

    def update(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number actually inserted."""
        added = 0
        for s, p, o in triples:
            if self.add(s, p, o):
                added += 1
        return added

    def remove(self, subject: Node, predicate: Node, obj: Node) -> bool:
        """Remove a triple; returns True if it was present."""
        lookup = self.dictionary.lookup
        s, p, o = lookup(subject), lookup(predicate), lookup(obj)
        if s is None or p is None or o is None:
            return False
        try:
            objs = self._spo[s][p]
        except KeyError:
            return False
        if o not in objs:
            return False
        if self._store is not None:
            # Same log-before-mutate ordering as add_ids.
            self._store._record_remove(self, s, p, o, self.version + 1)
        objs.remove(o)
        if not self._spo[s][p]:
            del self._spo[s][p]
            if not self._spo[s]:
                del self._spo[s]
        self._pos[p][o].discard(s)
        if not self._pos[p][o]:
            del self._pos[p][o]
            if not self._pos[p]:
                del self._pos[p]
        self._osp[o][s].discard(p)
        if not self._osp[o][s]:
            del self._osp[o][s]
            if not self._osp[o]:
                del self._osp[o]
        self._size -= 1
        self.version += 1
        if self._profiles:
            self._profiles.pop(p, None)
        self._invalidate_runs(s, p, o)
        return True

    def _invalidate_runs(self, s: int, p: int, o: int) -> None:
        """Drop the sorted runs a ``(s, p, o)`` mutation can have changed."""
        if self._object_runs:
            self._object_runs.pop((s, p), None)
        if self._subject_runs:
            self._subject_runs.pop((p, o), None)
        if self._predicate_subject_runs:
            self._predicate_subject_runs.pop(p, None)
        if self._predicate_subject_sets:
            self._predicate_subject_sets.pop(p, None)
        if self._so_pair_lists:
            self._so_pair_lists.pop(p, None)
        if self._pred_synopses:
            self._pred_synopses.pop(p, None)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        lookup = self.dictionary.lookup
        s, p, o = (lookup(t) for t in triple)
        if s is None or p is None or o is None:
            return False
        return o in self._spo.get(s, {}).get(p, ())

    def triples_ids(self, subject: Optional[int] = None,
                    predicate: Optional[int] = None,
                    obj: Optional[int] = None) -> Iterator[IdTriple]:
        """Iterate id triples matching an id pattern; ``None`` matches
        anything.  This is the evaluator's hot path: no term objects are
        touched, and the index whose bound prefix is longest is used so
        every combination of bound positions avoids a full scan.
        """
        if subject is not None:
            by_pred = self._spo.get(subject)
            if by_pred is None:
                return
            if predicate is not None:
                objs = by_pred.get(predicate)
                if objs is None:
                    return
                if obj is not None:
                    if obj in objs:
                        yield (subject, predicate, obj)
                    return
                for o in objs:
                    yield (subject, predicate, o)
                return
            if obj is not None:
                preds = self._osp.get(obj, {}).get(subject)
                if preds is None:
                    return
                for p in preds:
                    yield (subject, p, obj)
                return
            for p, objs in by_pred.items():
                for o in objs:
                    yield (subject, p, o)
            return
        if predicate is not None:
            by_obj = self._pos.get(predicate)
            if by_obj is None:
                return
            if obj is not None:
                for s in by_obj.get(obj, ()):
                    yield (s, predicate, obj)
                return
            for o, subjects in by_obj.items():
                for s in subjects:
                    yield (s, predicate, o)
            return
        if obj is not None:
            for s, preds in self._osp.get(obj, {}).items():
                for p in preds:
                    yield (s, p, obj)
            return
        for s, by_pred in self._spo.items():
            for p, objs in by_pred.items():
                for o in objs:
                    yield (s, p, o)

    # -- direct id-level accessors (evaluator hot paths) ----------------
    # These return internal index containers; callers must treat them as
    # read-only.  They exist so the BGP matcher's per-row probe is a dict
    # lookup instead of a generator instantiation.

    def spo_index(self):
        """The raw ``s -> {p -> objects}`` index (read-only contract).

        The dict object is stable for the graph's lifetime (mutations
        edit it in place)."""
        return self._spo

    def objects_for(self, s: int, p: int):
        """The set of object ids for (subject id, predicate id), or ()."""
        by_pred = self._spo.get(s)
        if by_pred is None:
            return ()
        return by_pred.get(p, ())

    def subjects_for(self, p: int, o: int):
        """The set of subject ids for (predicate id, object id), or ()."""
        by_obj = self._pos.get(p)
        if by_obj is None:
            return ()
        return by_obj.get(o, ())

    def predicates_for(self, s: int, o: int):
        """The set of predicate ids linking (subject id, object id), or ()."""
        by_subj = self._osp.get(o)
        if by_subj is None:
            return ()
        return by_subj.get(s, ())

    def predicate_objects(self, p: int):
        """The POS row of a predicate id: ``object id -> subject ids``
        (read-only contract), or an empty dict.

        Its keys are the predicate's distinct objects, in the order
        :meth:`so_pairs` first meets them (both walk this row), so a
        star ``COUNT`` reads its object-side sets here and a one-pattern
        count keyed on the object emits groups in the row path's order.
        """
        return self._pos.get(p, {})

    def contains_ids(self, s: int, p: int, o: int) -> bool:
        return o in self._spo.get(s, {}).get(p, ())

    # -- sorted runs (multiway intersection joins) ----------------------
    # Lazily-built, memoized sorted id arrays over the same index entries
    # the set accessors above expose.  The evaluator's intersection BGP
    # steps gallop over them (:func:`intersect_runs`); memoization means a
    # hot (s, p) pays the sort once until the entry mutates.  Empty results
    # are returned as () but never cached, so probing absent keys cannot
    # grow the caches.

    def objects_run(self, s: int, p: int) -> SortedRun:
        """Sorted object ids for ``(subject id, predicate id)``, or ()."""
        key = (s, p)
        run = self._object_runs.get(key)
        if run is None:
            objs = self._spo.get(s, {}).get(p)
            if not objs:
                return ()
            run = tuple(sorted(objs))
            self._object_runs[key] = run
            self.sorted_runs_built += 1
        return run

    def subjects_run(self, p: int, o: int) -> SortedRun:
        """Sorted subject ids for ``(predicate id, object id)``, or ()."""
        key = (p, o)
        run = self._subject_runs.get(key)
        if run is None:
            subs = self._pos.get(p, {}).get(o)
            if not subs:
                return ()
            run = tuple(sorted(subs))
            self._subject_runs[key] = run
            self.sorted_runs_built += 1
        return run

    def predicate_subjects_run(self, p: int) -> SortedRun:
        """Sorted ids of subjects with at least one ``p`` triple, or ().

        This is the run behind ``?s p ?anything`` membership: the
        intersection steps use it to require that a candidate subject
        *has* a predicate before the pattern's fan-out is expanded.
        """
        run = self._predicate_subject_runs.get(p)
        if run is None:
            by_obj = self._pos.get(p)
            if not by_obj:
                return ()
            subjects: Set[int] = set()
            for subs in by_obj.values():
                subjects.update(subs)
            run = tuple(sorted(subjects))
            self._predicate_subject_runs[p] = run
            self.sorted_runs_built += 1
        return run

    def predicate_subjects_set(self, p: int) -> frozenset:
        """The hashed companion of :meth:`predicate_subjects_run` — the
        membership-probe face of the same lazily-built entry (also
        invalidated on mutation).  The intersection steps probe it when
        the presence run is not the iteration seed."""
        members = self._predicate_subject_sets.get(p)
        if members is None:
            members = frozenset(self.predicate_subjects_run(p))
            if not members:
                return members
            self._predicate_subject_sets[p] = members
        return members

    def so_pairs_list(self, p: int) -> list:
        """Memoized :meth:`so_pairs` materialization (read-only contract).

        A constant-predicate scan step materializes the predicate's
        pairs at compile time; caching here amortizes that across
        queries the same way the sorted runs are amortized.  Empty
        results are not cached so probing absent predicates cannot grow
        the cache."""
        pairs = self._so_pair_lists.get(p)
        if pairs is None:
            pairs = list(self.so_pairs(p))
            if pairs:
                self._so_pair_lists[p] = pairs
        return pairs

    def so_pairs(self, p: int) -> Iterator[Tuple[int, int]]:
        """Iterate (subject id, object id) pairs for a predicate id."""
        by_obj = self._pos.get(p)
        if by_obj is None:
            return
        for o, subjects in by_obj.items():
            for s in subjects:
                yield (s, o)

    def triples(self, subject: Optional[Node] = None,
                predicate: Optional[Node] = None,
                obj: Optional[Node] = None) -> Iterator[Triple]:
        """Iterate term-level triples matching a pattern; ``None`` matches
        anything.  Decodes at the boundary; a bound term that was never
        interned matches nothing."""
        lookup = self.dictionary.lookup
        ids = []
        for term in (subject, predicate, obj):
            if term is None:
                ids.append(None)
            else:
                tid = lookup(term)
                if tid is None:
                    return
                ids.append(tid)
        decode = self.dictionary.decode
        for s, p, o in self.triples_ids(*ids):
            yield (decode(s), decode(p), decode(o))

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    # ------------------------------------------------------------------
    # Statistics (used by the SPARQL optimizer)
    # ------------------------------------------------------------------
    def count(self, subject: Optional[Node] = None,
              predicate: Optional[Node] = None,
              obj: Optional[Node] = None) -> int:
        """Number of triples matching the pattern (index-backed fast paths)."""
        if subject is None and predicate is None and obj is None:
            return self._size
        lookup = self.dictionary.lookup
        s = lookup(subject) if subject is not None else None
        p = lookup(predicate) if predicate is not None else None
        o = lookup(obj) if obj is not None else None
        if (subject is not None and s is None) \
                or (predicate is not None and p is None) \
                or (obj is not None and o is None):
            return 0
        if s is not None and p is not None and o is None:
            return len(self._spo.get(s, {}).get(p, ()))
        if s is None and p is not None and o is not None:
            return len(self._pos.get(p, {}).get(o, ()))
        if s is None and p is not None and o is None:
            by_obj = self._pos.get(p)
            if by_obj is None:
                return 0
            return sum(len(subjects) for subjects in by_obj.values())
        return sum(1 for _ in self.triples_ids(s, p, o))

    def predicates(self) -> Iterator[Node]:
        decode = self.dictionary.decode
        return (decode(p) for p in self._pos)

    def subjects(self, predicate: Optional[Node] = None) -> Iterator[Node]:
        decode = self.dictionary.decode
        if predicate is None:
            return (decode(s) for s in self._spo)
        pid = self.dictionary.lookup(predicate)
        if pid is None:
            return iter(())
        seen: Set[int] = set()
        for subjects in self._pos.get(pid, {}).values():
            seen.update(subjects)
        return (decode(s) for s in seen)

    def objects(self, predicate: Optional[Node] = None) -> Iterator[Node]:
        decode = self.dictionary.decode
        if predicate is None:
            return (decode(o) for o in self._osp)
        pid = self.dictionary.lookup(predicate)
        if pid is None:
            return iter(())
        return (decode(o) for o in self._pos.get(pid, {}))

    def predicate_profile(self, predicate: Node) -> Tuple[int, int, int]:
        """``(triples, distinct_subjects, distinct_objects)`` for a predicate.

        This is the public statistics interface the join-order optimizer
        consumes (via :class:`~repro.sparql.optimizer.GraphStatistics`).
        Profiles are memoized per predicate and invalidated when a triple
        with that predicate is added or removed, so repeated estimation
        during a query is O(1) after the first touch.
        """
        pid = self.dictionary.lookup(predicate)
        if pid is None:
            return (0, 0, 0)
        return self._profile_id(pid)

    def _profile_id(self, pid: int) -> Tuple[int, int, int]:
        profile = self._profiles.get(pid)
        if profile is None:
            by_obj = self._pos.get(pid, {})
            triples = 0
            subjects: Set[int] = set()
            for subs in by_obj.values():
                triples += len(subs)
                subjects.update(subs)
            profile = (triples, len(subjects), len(by_obj))
            self._profiles[pid] = profile
        return profile

    def predicate_synopsis(
            self, pid: int) -> Tuple[int, int, int, float, int, float, float]:
        """A small per-predicate synopsis for the cost-based planner.

        Returns ``(triples, distinct_subjects, distinct_objects,
        sampled_mean_subjects_per_object, sampled_max_subjects_per_object,
        edge_biased_subjects_per_object, edge_biased_objects_per_subject)``.
        The first three are exact (shared with :meth:`predicate_profile`);
        the fan-out moments are measured over a bounded, deterministic
        *systematic* sample of the POS index — every k-th object in
        insertion order, with the stride chosen so the sample spans the
        whole index — so building one stays O(distinct objects) after the
        profile while regions inserted early (e.g. a generator's seeded
        substructures) cannot dominate the sample.

        The two *edge-biased* moments are the expected fan-out seen when
        arriving at a node along a uniformly random triple — i.e.
        ``E[deg^2]/E[deg]`` — which is the correct expansion factor for a
        join that reaches the node through another pattern (high-degree
        hubs are reached proportionally more often).  On heavy-tailed
        graphs these are much larger than the plain means, and that gap
        is exactly what makes pattern-at-a-time plans blow up on cyclic
        queries.  Both are estimated by averaging the endpoint's degree
        over a bounded sample of edges (edge sampling *is* the bias).
        Memoized per predicate and invalidated when a triple with that
        predicate mutates.  An absent predicate yields all zeros.
        """
        syn = self._pred_synopses.get(pid)
        if syn is None:
            triples, distinct_s, distinct_o = self._profile_id(pid)
            if triples == 0:
                return (0, 0, 0, 0.0, 0, 0.0, 0.0)
            by_obj = self._pos.get(pid, {})
            stride = max(1, len(by_obj) // SYNOPSIS_SAMPLE)
            sampled = 0
            total = 0
            sq_total = 0
            worst = 0
            fwd_edges = 0
            fwd_total = 0
            spo = self._spo
            for position, subs in enumerate(by_obj.values()):
                if position % stride:
                    continue
                width = len(subs)
                total += width
                sq_total += width * width
                if width > worst:
                    worst = width
                for s in subs:
                    if fwd_edges >= SYNOPSIS_SAMPLE:
                        break
                    fwd_edges += 1
                    fwd_total += len(spo[s][pid])
                sampled += 1
                if sampled >= SYNOPSIS_SAMPLE:
                    break
            mean = total / sampled if sampled else 0.0
            biased_in = sq_total / total if total else 0.0
            biased_out = fwd_total / fwd_edges if fwd_edges else 0.0
            syn = (triples, distinct_s, distinct_o, mean, worst,
                   biased_in, biased_out)
            self._pred_synopses[pid] = syn
            self.synopses_built += 1
        return syn

    def predicate_stats(self) -> Dict[Node, int]:
        """Triple count per predicate."""
        decode = self.dictionary.decode
        return {decode(p): sum(len(ss) for ss in by_obj.values())
                for p, by_obj in self._pos.items()}

    def classes(self) -> Dict[Node, int]:
        """Instance counts per ``rdf:type`` class — the paper's exploration
        operator for identifying entity types and their distributions."""
        from .namespaces import RDF
        type_id = self.dictionary.lookup(RDF.type)
        if type_id is None:
            return {}
        decode = self.dictionary.decode
        return {decode(cls): len(subjects)
                for cls, subjects in self._pos.get(type_id, {}).items()}

    def literal_count(self) -> int:
        """Number of *triples* whose object is a literal.

        Note: this counts triples, not distinct literal values — two triples
        sharing the same literal object count twice.  (Earlier revisions
        counted distinct literal objects, which under-reported literal
        density for exploration.)  Use ``distinct_literal_count`` for the
        distinct-value variant.
        """
        decode = self.dictionary.decode
        total = 0
        for o, by_subj in self._osp.items():
            if isinstance(decode(o), Literal):
                total += sum(len(preds) for preds in by_subj.values())
        return total

    def distinct_literal_count(self) -> int:
        """Number of distinct literal terms appearing in object position."""
        decode = self.dictionary.decode
        return sum(1 for o in self._osp if isinstance(decode(o), Literal))

    def __repr__(self):
        return "Graph(%r, %d triples)" % (self.uri, self._size)
