"""Differential fuzzing: production, reference and the cache return one bag.

≥200 seeded generated queries (see :mod:`queryfuzz`) run on the
production operators (``Engine(dataset)``) and on the reference plane
(the seed dict evaluator) and must return bag-identical results.  The
grammar covers BGPs, FILTER, OPTIONAL, BIND (variable copy, constant IRI
or literal, ``?v + 1``), VALUES over one or two variables with ``UNDEF``
cells, grouped aggregates, DISTINCT and ORDER BY + LIMIT.  The serving
tier's result cache is then treated as a third plane: cache-cold and
cache-warm submissions must agree with the engine truth, including across
interleaved graph mutations (the stale-read hunt).

Grouped specs are the least-covered shape per seed, so a second range of
seeds runs only its grouped specs (COUNT / SUM / AVG / MIN / MAX, DISTINCT,
``COUNT(*)``, expression arguments, 0-2 keys, HAVING).

A failing seed shrinks structurally (dropping optionals, binds, VALUES
blocks, filters, modifiers, aggregates, patterns while the disagreement
persists) and the test dumps the minimal reproducing SPARQL text, so CI
failures replay locally from the message alone.  Generation is
PYTHONHASHSEED-independent — asserted here by re-rendering under two
different hash seeds in subprocesses; the CI ``fuzz`` job runs the whole
differential under two hash seeds to cover the evaluation side too.
"""

import os
import random
import subprocess
import sys

import pytest

from queryfuzz import QuerySpec, generate, mutate, shrink
from repro.data.loader import build_dataset
from repro.sparql import Engine, ResultCache
from repro.sparql.server import QueryServer

SCALE = 0.03
N_SEEDS = 220
CHUNK = 10
#: Seeds after N_SEEDS whose grouped specs run too (~340 of them).
GROUPED_SPAN = 1200
GROUPED_CHUNK = 200


@pytest.fixture(scope="module")
def dataset():
    # use_cache=False: nothing here may leak into (or mutate) the
    # memoized datasets other suites share.
    return build_dataset(scale=SCALE, include_yago=False, use_cache=False)


@pytest.fixture(scope="module")
def planes(dataset):
    return {
        "reference": Engine(dataset, columnar=False),
        "production": Engine(dataset),
    }


def named_bag(result):
    """Order-free, variable-name-keyed bag of a result set."""
    return sorted(
        tuple(sorted((var, repr(term))
                     for var, term in zip(result.variables, row)))
        for row in result.rows)


def _planes_disagree(spec, planes):
    """None if all planes agree, else a short description."""
    text = spec.render()
    try:
        bags = {name: named_bag(engine.query(text))
                for name, engine in sorted(planes.items())}
    except Exception as exc:  # generator emitted something invalid
        return "raised %s: %s" % (type(exc).__name__, exc)
    reference = bags["reference"]
    for name, bag in sorted(bags.items()):
        if bag != reference:
            return "%s returned %d rows, reference %d" % (
                name, len(bag), len(reference))
    return None


def _check_seeds(planes, seeds, grouped_only=False):
    for seed in seeds:
        spec = generate(seed)
        if grouped_only and spec.group is None:
            continue
        failure = _planes_disagree(spec, planes)
        if failure is None:
            continue
        minimal = shrink(
            spec, lambda s: _planes_disagree(s, planes) is not None)
        pytest.fail(
            "fuzz seed %d: %s\n--- minimal reproducing query ---\n%s"
            % (seed, failure, minimal.render()))


@pytest.mark.parametrize("start", range(0, N_SEEDS, CHUNK))
def test_planes_agree_on_fuzzed_queries(planes, start):
    _check_seeds(planes, range(start, start + CHUNK))


@pytest.mark.parametrize("start", range(N_SEEDS, N_SEEDS + GROUPED_SPAN,
                                        GROUPED_CHUNK))
def test_planes_agree_on_fuzzed_aggregates(planes, start):
    """More grouped specs: under a third of all seeds group, and only
    film specs carry the integer column SUM / AVG read."""
    _check_seeds(planes, range(start, start + GROUPED_CHUNK),
                 grouped_only=True)


def test_generation_is_hash_seed_independent():
    """generate(seed) renders identical text under any PYTHONHASHSEED."""
    script = (
        "import sys; sys.path.insert(0, %r)\n"
        "from queryfuzz import generate\n"
        "for seed in range(60):\n"
        "    sys.stdout.write(generate(seed).render())\n"
        "    sys.stdout.write('\\n=====\\n')\n"
        % os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    for hash_seed in ("17", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True,
            text=True, env=env, check=True)
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_shrink_drops_aggregates_one_at_a_time():
    spec = QuerySpec(0)
    spec.patterns = [("?film", "rdf:type", "dbpo:Film"),
                     ("?film", "dbpo:runtime", "?v0")]
    spec.group = (("?v0",),
                  ((None, "COUNT(*)"), ("?v0", "MAX(?v0)"),
                   ("?film", "COUNT(DISTINCT ?film)")),
                  ("?v0", "SUM(?v0) >= 90"))

    def still_fails(candidate):
        return candidate.group is not None and any(
            text.startswith("MAX(") for _var, text in candidate.group[1])

    minimal = shrink(spec, still_fails)
    assert minimal.group == ((), (("?v0", "MAX(?v0)"),), None)
    assert "(MAX(?v0) AS ?a0)" in minimal.render()


def test_shrink_drops_binds_and_values_one_at_a_time():
    spec = QuerySpec(0)
    spec.patterns = [("?film", "rdf:type", "dbpo:Film"),
                     ("?film", "dbpo:runtime", "?v0")]
    spec.binds = [("?b0", "?film", "?film"), ("?b1", "?v0", "?v0 + 1"),
                  ("?b2", None, "dbpr:France")]
    spec.values = [(("?v0",), (("90",), ("UNDEF",))),
                   (("?u0", "?v0"), (('"x"', "100"),))]

    def still_fails(candidate):
        return ("?b1", "?v0", "?v0 + 1") in candidate.binds \
            and any(variables == ("?u0", "?v0")
                    for variables, _rows in candidate.values)

    minimal = shrink(spec, still_fails)
    assert minimal.binds == [("?b1", "?v0", "?v0 + 1")]
    assert minimal.values == [(("?u0", "?v0"), (('"x"', "100"),))]
    text = minimal.render()
    assert "BIND(?v0 + 1 AS ?b1)" in text
    assert 'VALUES (?u0 ?v0) { ("x" 100) }' in text
    assert "SELECT ?film ?v0 ?b1 ?u0" in text


def test_cache_cold_vs_warm_matches_engine_truth(dataset, planes):
    """Cold (executes) and warm (served from cache) submissions both
    match the reference plane, query by query."""
    cache = ResultCache(max_entries=1024)
    with QueryServer(Engine(dataset), workers=2,
                     result_cache=cache) as server:
        for seed in range(0, 60):
            text = generate(seed).render()
            cold = server.submit(text).result()
            warm = server.submit(text).result()
            truth = named_bag(planes["reference"].query(text))
            assert named_bag(cold) == truth, text
            assert named_bag(warm) == truth, text
    assert server.stats.cache_hits > 0
    assert server.stats.cache_misses > 0


def test_cache_stays_fresh_across_interleaved_mutations():
    """Repeated fuzzed queries against a mutating graph: the cached
    server must always agree with an uncached reference engine queried
    at the same moment — a stale entry served after a mutation fails
    here immediately."""
    ds = build_dataset(scale=0.02, include_yago=False, use_cache=False)
    graph = ds.graph("http://dbpedia.org")
    cache = ResultCache(max_entries=256)
    control = Engine(ds, columnar=False)
    rng = random.Random(987)
    hits_before_any_mutation = None
    with QueryServer(Engine(ds), workers=2,
                     result_cache=cache) as server:
        for step in range(36):
            text = generate(rng.randrange(8)).render()
            got = server.submit(text).result()
            want = control.query(text)
            assert named_bag(got) == named_bag(want), \
                "stale or wrong rows after %d steps for:\n%s" % (step, text)
            if step % 4 == 3:
                if hits_before_any_mutation is None:
                    hits_before_any_mutation = server.stats.cache_hits
                mutate(graph, rng, tag=step)
    # The cache did real work between mutations...
    assert server.stats.cache_hits > 0
    # ...and kept hitting after the first mutation epoch ended (fresh
    # entries under the new fingerprint, not a permanently-cold cache).
    assert server.stats.cache_hits > (hits_before_any_mutation or 0)
