#!/usr/bin/env python3
"""Print one deterministic line per query: its result digest, every
``EvaluationStats`` counter, a short hash of its plan's text and its
planner passes' change counts.

The queries are the paper's case studies and synthetic pipelines, the
join corpus, and the ledger's bibliometrics pipelines and serving
population (read from ``benchmarks/ledger/workloads.py``), all run in
that order on one engine over one seeded dataset.  The counters say how
each query was executed (pattern matches, intersection and generic-join
steps, rows held at breakers, ...) and the plan hash covers what the
planner wrote (estimates, strategies, sideways-filter marks, without the
pass-timing lines), so two source trees that plan and execute every
query alike print identical output, and a moved estimate shows even when
no counter moves.  The ``passes=`` field lists each pass of the plan
with the number of rewrites it made (``FilterPushdown:2,...``, without
its seconds), so a change that reaches the same plans by other rule
firings shows too.  A ``diff`` of two runs is therefore a plan-flip check
for a change that should move no plan::

    PYTHONPATH=src python scripts/plan_fingerprint.py --scale 0.05 > new.txt
    PYTHONPATH=/path/to/other/src python scripts/plan_fingerprint.py \\
        --scale 0.05 > old.txt
    diff old.txt new.txt

The script reads only public engine APIs (``Engine.query``,
``Engine.last_stats``, ``EvaluationStats.as_dict``, ``Engine.last_plan``,
``Plan.explain`` and ``Plan.pass_stats``), so it runs against older
trees too.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import os
import random
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks", "ledger"))

from stats import frame_digest, result_digest  # noqa: E402
from workloads import (ServingRun, _pass_seed, biblio_frames,  # noqa: E402
                       build_population)

from repro.client import EngineClient  # noqa: E402
from repro.data import DBPEDIA_URI, build_dataset  # noqa: E402
from repro.sparql import Engine  # noqa: E402
from repro.workload import (CASE_STUDIES, JOIN_QUERIES,  # noqa: E402
                            SYNTHETIC_QUERIES)


#: The serving population's size: ``ServingRun``'s own default.
POPULATION = inspect.signature(
    ServingRun.__init__).parameters["population"].default


def fingerprint_lines(scale: float, seed: int):
    """Yield ``"<section>/<query> <digest> field=value ..."`` lines."""
    dataset = build_dataset(scale=scale, seed=seed, use_cache=False)
    engine = Engine(dataset)
    client = EngineClient(engine)

    def line(label, digest):
        counters = " ".join("%s=%d" % item
                            for item in engine.last_stats.as_dict().items())
        passes = ",".join("%s:%d" % (stats.name, stats.changes)
                          for stats in engine.last_plan.pass_stats)
        return "%s %s %s plan=%s passes=%s" % (label, digest, counters,
                                               plan_hash(), passes)

    def plan_hash():
        # The plan text without its "--" pass-timing lines.
        text = "\n".join(line for line in
                         engine.last_plan.explain().splitlines()
                         if not line.startswith("--"))
        return hashlib.sha1(text.encode("utf-8")).hexdigest()[:12]

    frames = ([("case", case.key, case.frame()) for case in CASE_STUDIES]
              + [("synthetic", query.qid, query.frame())
                 for query in SYNTHETIC_QUERIES]
              + [("biblio", key, frame) for key, frame in biblio_frames()])
    for section, key, frame in frames:
        yield line("%s/%s" % (section, key),
                   frame_digest(frame.execute(client)))
    for query in JOIN_QUERIES:
        result = engine.query(query.sparql, default_graph_uri=DBPEDIA_URI)
        yield line("join/%s" % query.key, result_digest(result))
    # Seeded as ``ServingRun`` seeds it, so these are the ledger's queries.
    texts = build_population(dataset, random.Random(_pass_seed(seed, -2)),
                             POPULATION)
    for index, text in enumerate(texts):
        yield line("serving/%04d" % index, result_digest(engine.query(text)))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", type=float, default=0.05,
                        help="dataset scale (default 0.05)")
    parser.add_argument("--seed", type=int, default=42,
                        help="dataset and population seed (default 42)")
    args = parser.parse_args()
    for text in fingerprint_lines(args.scale, args.seed):
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
