"""``RDFFrame.execute`` vs the frame's validated SPARQL over the paper's
workload.

The acceptance bar for the planner layer: for every case-study pipeline
(under both generation strategies) ``execute`` — which sends the frame's
unvalidated text — must return exactly the same results as running
``to_sparql()``, the reference evaluator must agree, and repeated
executions must hit the plan cache.
"""

import pytest

from repro.client import EngineClient
from repro.sparql import ReferenceEvaluator  # noqa: F401 (documented pin)
from repro.workload import CASE_STUDIES, get_case_study


@pytest.fixture(params=[cs.key for cs in CASE_STUDIES])
def case_study(request):
    return get_case_study(request.param)


class TestDirectPathEquivalence:
    @pytest.mark.parametrize("strategy", ["optimized", "naive"])
    def test_direct_equals_text_path(self, case_study, engine, client,
                                     strategy):
        frame = case_study.frame()
        # execute: model -> unvalidated text -> parser -> plan -> evaluator.
        direct = frame.execute(client, strategy=strategy)
        # to_sparql: the same text, validated first.
        text = client.execute(frame.to_sparql(strategy=strategy))
        assert direct.equals_bag(text)

    def test_direct_equals_reference_plane(self, case_study, dataset):
        """The full pipeline (translator + parser + every optimizer pass)
        pinned against the seed dict-based evaluator."""
        from repro.sparql import Engine

        frame = case_study.frame()
        direct = frame.execute(EngineClient(Engine(dataset)))
        reference = EngineClient(Engine(dataset, columnar=False)) \
            .execute(frame.to_sparql())
        assert direct.equals_bag(reference)

    def test_repeated_execution_hits_plan_cache(self, case_study, dataset):
        from repro.sparql import Engine

        engine = Engine(dataset)
        client = EngineClient(engine)
        frame = case_study.frame()
        first = frame.execute(client)
        assert engine.plan_cache_hits == 0
        second = frame.execute(client)
        assert engine.plan_cache_hits == 1
        assert engine.last_plan.executions == 2
        assert first.equals_bag(second)


class TestPlanPathCost:
    def test_frame_plans_from_text(self, case_study, dataset):
        """A frame reaches the engine as SPARQL text, parsed once: the
        second execution is a text-memo and plan-cache hit."""
        from repro.sparql import Engine

        engine = Engine(dataset)
        client = EngineClient(engine)
        case_study.frame().execute(client)
        assert engine.last_plan.source == "text"
        case_study.frame().execute(client)
        assert len(engine._text_memo) == 1
        assert engine.plan_cache_misses == 1

    def test_pass_pipeline_ran(self, case_study, dataset):
        from repro.sparql import Engine

        engine = Engine(dataset)
        EngineClient(engine).execute_model(case_study.frame().query_model())
        names = [s.name for s in engine.last_plan.pass_stats]
        assert names[:3] == ["FilterPushdown", "ProjectionPruning",
                             "BGPMerge"]
        assert "JoinOrdering" in names


def _all_frames():
    """Every case study, synthetic query and ledger bibliometrics frame
    (the last from the ledger's workload module)."""
    import os
    import sys
    from repro.workload import SYNTHETIC_QUERIES
    ledger = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                          "benchmarks", "ledger")
    sys.path.insert(0, os.path.abspath(ledger))
    try:
        from workloads import biblio_frames
    finally:
        sys.path.pop(0)
    return ([("case/" + c.key, c.frame()) for c in CASE_STUDIES]
            + [("synthetic/" + q.qid, q.frame()) for q in SYNTHETIC_QUERIES]
            + [("biblio/" + key, frame) for key, frame in biblio_frames()])


class TestOneFrontEnd:
    """A frame reaches the engine as SPARQL text on every client: the
    local and the HTTP path plan the same text, once."""

    @pytest.mark.parametrize("strategy", ["optimized", "naive"])
    def test_local_and_http_share_one_plan(self, dataset, strategy):
        from repro.client import HttpClient
        from repro.sparql import Endpoint, Engine

        for name, frame in _all_frames():
            frame.to_sparql(strategy=strategy)  # validates
            engine = Engine(dataset)
            local = frame.execute(EngineClient(engine), strategy=strategy)
            wire = frame.execute(HttpClient(Endpoint(engine)),
                                 strategy=strategy)
            assert engine.plan_cache_misses == 1, name
            assert local.equals_bag(wire), name
