"""Grouped analytics: aggregations pushed down into the engine.

The paper's case studies all end the same way: a navigational pipeline
collapsed by ``group_by().count()/avg()``.  This example runs those
shapes against the synthetic DBpedia graph and shows what the engine
does with them — ``Group`` folds its input stream into per-group
accumulators, single-pattern counts are answered straight from the graph
indexes (no solution rows at all) and ``sort().head()`` over a grouped
frame becomes a bounded heap over the group stream (top-k groups, no
full sort).

Run:  PYTHONPATH=src python examples/grouped_analytics.py
"""

from repro import EngineClient, Engine, KnowledgeGraph
from repro.data import DBPEDIA_URI, generate_dbpedia

# ----------------------------------------------------------------------
# 1. Stand up the engine on synthetic DBpedia.
# ----------------------------------------------------------------------
graph_data = generate_dbpedia(scale=0.2)
engine = Engine(graph_data)
client = EngineClient(engine)
print("Loaded %d triples into the engine.\n" % len(graph_data))

graph = KnowledgeGraph(graph_uri=DBPEDIA_URI)
movies = graph.feature_domain_range("dbpp:starring", "movie", "actor")

# ----------------------------------------------------------------------
# 2. Top-k groups: the most prolific actors by distinct movie count,
#    ORDER BY the aggregate, LIMIT 10.  One pushed-down query.
# ----------------------------------------------------------------------
prolific = (movies.group_by(["actor"])
            .count("movie", "movie_count", unique=True)
            .sort({"movie_count": "desc"})
            .head(10))
print("Generated SPARQL:\n")
print(prolific.to_sparql())

df = prolific.execute(client)
stats = engine.last_stats
print("\nTop 10 actors by movie count:")
print(df.to_string())
print("\nThe plan (a bounded heap over the group stream):")
for line in engine.last_plan.explain().splitlines():
    if not line.startswith("--"):  # skip the per-pass timings
        print(line)
print("groups built: %d, accumulator rows folded: %d, rows pulled: %d"
      % (stats.groups_built, stats.accumulator_rows, stats.rows_pulled))
print("(accumulator_rows == 0 means the COUNT was a star, "
      "answered straight from the graph indexes)")

# ----------------------------------------------------------------------
# 3. A general aggregation: average film runtime per starring actor —
#    a join folded into per-group accumulators as it streams.
# ----------------------------------------------------------------------
runtimes = (movies.expand("movie", [("dbpo:runtime", "runtime")])
            .group_by(["actor"])
            .avg("runtime", "avg_runtime")
            .sort({"avg_runtime": "desc"})
            .head(5))
df = runtimes.execute(client)
stats = engine.last_stats
print("\nTop 5 actors by average film runtime:")
print(df.to_string())
print("\ngroups built: %d, accumulator rows folded: %d"
      % (stats.groups_built, stats.accumulator_rows))

# ----------------------------------------------------------------------
# 4. Exploration operators ride the same path: class distribution.
# ----------------------------------------------------------------------
print("\nClass distribution of the graph:")
print(graph.classes_and_freq().execute(client)
      .sort("frequency", ascending=False).head(8).to_string())
