"""A dataset of named graphs.

SPARQL queries name the graphs they read with ``FROM <uri>`` and may scope
patterns with ``GRAPH <uri> { ... }``.  The paper's synthetic workload joins
DBpedia with YAGO3, which requires exactly this machinery.

All graphs in a dataset must share one :class:`~.dictionary.TermDictionary`
(the default: every graph uses the process-wide shared dictionary), so that
the evaluator can join id-encoded solutions produced from different graphs
without re-encoding.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from .dictionary import TermDictionary, shared_dictionary
from .graph import Graph


class Dataset:
    """A collection of named :class:`Graph` objects, keyed by graph URI."""

    def __init__(self):
        self._graphs: Dict[str, Graph] = {}

    def add_graph(self, graph: Graph) -> Graph:
        for other in self._graphs.values():
            if other.dictionary is not graph.dictionary:
                raise ValueError(
                    "graph %r uses a different TermDictionary than the "
                    "dataset's existing graphs; all graphs in a dataset "
                    "must share one dictionary for id-level joins" % graph.uri)
        self._graphs[graph.uri] = graph
        return graph

    def create_graph(self, uri: str) -> Graph:
        """Get-or-create the graph named ``uri``."""
        if uri not in self._graphs:
            dictionary = None
            for other in self._graphs.values():
                dictionary = other.dictionary
                break
            self._graphs[uri] = Graph(uri, dictionary=dictionary)
        return self._graphs[uri]

    def graph(self, uri: str) -> Graph:
        try:
            return self._graphs[uri]
        except KeyError:
            raise KeyError("no graph named %r in dataset (have: %s)" % (
                uri, ", ".join(sorted(self._graphs)) or "<none>"))

    def graph_or_empty(self, uri: str) -> Graph:
        """The graph named ``uri``, or a new empty one (sharing the
        dataset's dictionary) when there is none: a ``GRAPH <uri>``
        scope over a graph the dataset does not hold matches nothing."""
        graph = self._graphs.get(uri)
        if graph is None:
            graph = Graph(uri, dictionary=next(
                (g.dictionary for g in self._graphs.values()), None))
        return graph

    def __contains__(self, uri: str) -> bool:
        return uri in self._graphs

    def __iter__(self) -> Iterator[Graph]:
        return iter(self._graphs.values())

    def __len__(self) -> int:
        return len(self._graphs)

    def uris(self) -> List[str]:
        return sorted(self._graphs)

    def union_view(self, uris: Optional[List[str]] = None) -> "GraphUnion":
        """A read-only union of several graphs, used when a query has
        multiple ``FROM`` clauses without ``GRAPH`` scoping."""
        graphs = [self.graph(u) for u in uris] if uris else list(self)
        return GraphUnion(graphs)


class GraphUnion:
    """Read-only union of graphs exposing the Graph matching interface
    (term-level and id-level), with set semantics across members."""

    def __init__(self, graphs: List[Graph]):
        self.graphs = graphs
        self.uri = "urn:union:" + "+".join(g.uri for g in graphs)
        self.dictionary: TermDictionary = (
            graphs[0].dictionary if graphs else shared_dictionary())
        # Sorted runs merged across members, memoized per union view.  A
        # union view is created per query resolution, so the cache cannot
        # go stale across mutations; single-member unions delegate to the
        # member's persistent (mutation-invalidated) run cache instead.
        self._runs: Dict[Tuple, Tuple[int, ...]] = {}
        self.sorted_runs_built = 0
        self.synopses_built = 0

    def __len__(self) -> int:
        return sum(len(g) for g in self.graphs)

    @property
    def version(self) -> int:
        """Monotone mutation counter: the sum of member versions.

        Any member mutation changes this — including an equal-size
        replace, which leaves ``len()`` unchanged.  Statistics consumers
        snapshot it to detect stale synopses (the :class:`GraphUnion`
        fix: previously only a size change was observable).
        """
        return sum(g.version for g in self.graphs)

    # -- sorted runs (multiway intersection joins) ----------------------
    def _merged_run(self, key: Tuple, sets) -> Tuple[int, ...]:
        run = self._runs.get(key)
        if run is None:
            merged = set()
            for member in sets:
                merged.update(member)
            if not merged:
                return ()
            run = tuple(sorted(merged))
            self._runs[key] = run
            self.sorted_runs_built += 1
        return run

    def objects_run(self, s, p):
        graphs = self.graphs
        if len(graphs) == 1:
            return graphs[0].objects_run(s, p)
        return self._merged_run(("o", s, p),
                                (g.objects_for(s, p) for g in graphs))

    def subjects_run(self, p, o):
        graphs = self.graphs
        if len(graphs) == 1:
            return graphs[0].subjects_run(p, o)
        return self._merged_run(("s", p, o),
                                (g.subjects_for(p, o) for g in graphs))

    def predicate_subjects_run(self, p):
        graphs = self.graphs
        if len(graphs) == 1:
            return graphs[0].predicate_subjects_run(p)
        return self._merged_run(("ps", p),
                                (g.predicate_subjects_run(p)
                                 for g in graphs))

    def predicate_subjects_set(self, p):
        graphs = self.graphs
        if len(graphs) == 1:
            return graphs[0].predicate_subjects_set(p)
        key = ("pss", p)
        members = self._runs.get(key)
        if members is None:
            members = frozenset(self.predicate_subjects_run(p))
            if not members:
                return members
            self._runs[key] = members
        return members

    def triples_ids(self, subject=None, predicate=None, obj=None):
        """Id-level union iteration with cross-graph dedup."""
        if len(self.graphs) == 1:
            yield from self.graphs[0].triples_ids(subject, predicate, obj)
            return
        seen = set()
        for g in self.graphs:
            for t in g.triples_ids(subject, predicate, obj):
                if t not in seen:
                    seen.add(t)
                    yield t

    # -- direct id-level accessors (same contract as Graph's) -----------
    def spo_index(self):
        """Single-member unions expose the member's raw index; real
        unions return ``None`` and callers take the per-row path."""
        graphs = self.graphs
        return graphs[0].spo_index() if len(graphs) == 1 else None

    def objects_for(self, s, p):
        graphs = self.graphs
        if len(graphs) == 1:
            return graphs[0].objects_for(s, p)
        out = set()
        for g in graphs:
            out.update(g.objects_for(s, p))
        return out

    def subjects_for(self, p, o):
        graphs = self.graphs
        if len(graphs) == 1:
            return graphs[0].subjects_for(p, o)
        out = set()
        for g in graphs:
            out.update(g.subjects_for(p, o))
        return out

    def predicates_for(self, s, o):
        graphs = self.graphs
        if len(graphs) == 1:
            return graphs[0].predicates_for(s, o)
        out = set()
        for g in graphs:
            out.update(g.predicates_for(s, o))
        return out

    def contains_ids(self, s, p, o) -> bool:
        return any(g.contains_ids(s, p, o) for g in self.graphs)

    def so_pairs_list(self, p):
        """Memoized pair list, same contract as :meth:`Graph.so_pairs_list`
        (single member delegates; real unions memoize per view)."""
        graphs = self.graphs
        if len(graphs) == 1:
            return graphs[0].so_pairs_list(p)
        key = ("sop", p)
        pairs = self._runs.get(key)
        if pairs is None:
            pairs = tuple(self.so_pairs(p))
            if not pairs:
                return ()
            self._runs[key] = pairs
        return pairs

    def so_pairs(self, p):
        graphs = self.graphs
        if len(graphs) == 1:
            yield from graphs[0].so_pairs(p)
            return
        seen = set()
        for g in graphs:
            for pair in g.so_pairs(p):
                if pair not in seen:
                    seen.add(pair)
                    yield pair

    def triples(self, subject=None, predicate=None, obj=None):
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

    def count(self, subject=None, predicate=None, obj=None) -> int:
        if len(self.graphs) == 1:
            return self.graphs[0].count(subject, predicate, obj)
        lookup = self.dictionary.lookup
        ids = []
        for term in (subject, predicate, obj):
            if term is None:
                ids.append(None)
            else:
                tid = lookup(term)
                if tid is None:
                    return 0
                ids.append(tid)
        return sum(1 for _ in self.triples_ids(*ids))

    def predicate_synopsis(self, pid):
        """Member-wise merge of per-graph predicate synopses: exact
        figures are summed (an upper bound when members overlap), the
        sampled mean is weighted by each member's distinct objects, the
        edge-biased fan-out moments by each member's triple count (edges),
        and the sampled max is the max across members."""
        graphs = self.graphs
        if len(graphs) == 1:
            return graphs[0].predicate_synopsis(pid)
        key = ("syn", pid)
        syn = self._runs.get(key)
        if syn is None:
            triples = distinct_s = distinct_o = worst = 0
            weighted = 0.0
            weighted_in = 0.0
            weighted_out = 0.0
            for g in graphs:
                t, ds, do, mean, mx, b_in, b_out = g.predicate_synopsis(pid)
                triples += t
                distinct_s += ds
                distinct_o += do
                weighted += mean * do
                weighted_in += b_in * t
                weighted_out += b_out * t
                if mx > worst:
                    worst = mx
            mean = weighted / distinct_o if distinct_o else 0.0
            biased_in = weighted_in / triples if triples else 0.0
            biased_out = weighted_out / triples if triples else 0.0
            syn = (triples, distinct_s, distinct_o, mean, worst,
                   biased_in, biased_out)
            self._runs[key] = syn
            self.synopses_built += 1
        return syn

    def predicate_stats(self):
        stats = {}
        for g in self.graphs:
            for p, n in g.predicate_stats().items():
                stats[p] = stats.get(p, 0) + n
        return stats
