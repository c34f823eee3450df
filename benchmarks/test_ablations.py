"""Ablation benchmarks for the design decisions DESIGN.md calls out.

1. Optimized vs. naive generation as the operator chain grows.
2. Push-down vs. client-side filtering across selectivities.
3. Endpoint page-size sweep (pagination cost).

The engine's internal decisions (join order, join strategy, sideways
filters, batch kind, common-subexpression sharing) have no switch to
ablate: the planner makes them and ``Plan.explain()`` shows them.
"""

import pytest

from repro.client import HttpClient
from repro.core import KnowledgeGraph
from repro.data import DBPEDIA_URI
from repro.sparql import Endpoint

ROUNDS = 3


def _chain_frame(length):
    """A seed plus ``length`` expands over real film predicates."""
    kg = KnowledgeGraph(graph_uri=DBPEDIA_URI)
    frame = kg.entities("dbpo:Film", "film")
    predicates = [("dbpp:studio", "studio"), ("dbpp:country", "country"),
                  ("dbpo:language", "language"), ("dbpo:story", "story"),
                  ("dbpo:runtime", "runtime"), ("dcterms:subject", "subject"),
                  ("rdfs:label", "title"), ("dbpp:director", "director")]
    for predicate, column in predicates[:length]:
        frame = frame.expand("film", [(predicate, column)])
    return frame


@pytest.mark.benchmark(group="ablation-chain-length")
@pytest.mark.parametrize("strategy", ["optimized", "naive"])
@pytest.mark.parametrize("length", [2, 4, 8])
def test_generation_strategy_vs_chain_length(benchmark, strategy, length,
                                             engine_client):
    """Naive cost grows with every extra operator (one more materialized
    subquery); optimized cost stays near-flat."""
    frame = _chain_frame(length)
    query = frame.to_sparql(strategy=strategy)
    benchmark.pedantic(engine_client.execute, args=(query,),
                       rounds=ROUNDS, iterations=1)


@pytest.mark.benchmark(group="ablation-pushdown")
@pytest.mark.parametrize("mode", ["pushdown", "client_side"])
@pytest.mark.parametrize("selectivity", ["rare", "common"])
def test_filter_pushdown_vs_client_side(benchmark, mode, selectivity,
                                        http_client):
    """Pushing the filter into the engine transfers only matching rows;
    client-side filtering ships everything then filters."""
    kg = KnowledgeGraph(graph_uri=DBPEDIA_URI)
    value = ("=dbpr:Gaumont" if selectivity == "rare"
             else "!=dbpr:Gaumont")
    base = kg.entities("dbpo:Film", "film") \
        .expand("film", [("dbpp:studio", "studio"),
                         ("rdfs:label", "title")])

    if mode == "pushdown":
        frame = base.filter({"studio": [value]})

        def run():
            return frame.execute(http_client)
    else:
        target = "http://dbpedia.org/resource/Gaumont"
        keep = ((lambda row: row["studio"] == target)
                if selectivity == "rare"
                else (lambda row: row["studio"] != target))

        def run():
            return base.execute(http_client).filter(keep)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)


@pytest.mark.benchmark(group="ablation-pagination")
@pytest.mark.parametrize("page_size", [100, 1000, 10000])
def test_pagination_page_size(benchmark, engine, page_size):
    """Smaller endpoint pages mean more round trips for the same result."""
    endpoint = Endpoint(engine, max_rows=page_size)
    kg = KnowledgeGraph(graph_uri=DBPEDIA_URI)
    query = kg.entities("dbpo:Film", "film") \
        .expand("film", [("rdfs:label", "title")]).to_sparql()

    def run():
        endpoint.clear_cache()
        client = HttpClient(endpoint)
        return client.execute(query)

    benchmark.pedantic(run, rounds=ROUNDS, iterations=1)
