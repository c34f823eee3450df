"""In-memory spans recorded from outside the program under test.

Nothing under ``src/`` is instrumented.  :meth:`Tracer.install` replaces
the public functions at each layer boundary with wrappers that record a
span and call the original; :meth:`Tracer.uninstall` puts the originals
back.  A span is ``[id, parent, op, name, layer, start, end]``.  Each
thread keeps its own stack, so a span's parent is the span that was open
on the same thread when it started; spans recorded on server worker
threads have no parent and no op.

A layer's self time is its spans' duration minus the part their child
spans cover.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

ID, PARENT, OP, NAME, LAYER, START, END = range(7)

#: Layers in path order, named after the modules under ``src/repro``.
LAYERS = ("core", "sparql.parser", "sparql.plan", "sparql.evaluator",
          "sparql.results", "dataframe", "sparql.endpoint", "client",
          "sparql.cache", "sparql.server", "storage.wal",
          "storage.snapshot", "rdf")


class Tracer:
    """Records spans while enabled; costs one attribute test when not."""

    def __init__(self):
        self.enabled = False
        self.spans: List[list] = []
        self.counts: Dict[str, float] = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: List[tuple] = []
        self._count_lock = threading.Lock()

    # -- recording -----------------------------------------------------
    @contextmanager
    def span(self, name: str, layer: str, op: Optional[str] = None
             ) -> Iterator[Optional[list]]:
        """Record one span around the body.  ``op`` starts a new op: every
        span opened inside it on this thread carries the op's id."""
        if not self.enabled:
            yield None
            return
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        record = [span_id, parent[ID] if parent else None,
                  span_id if op is not None else
                  (parent[OP] if parent else None),
                  op if op is not None else name, layer, 0.0, 0.0]
        stack.append(record)
        record[START] = time.perf_counter()
        try:
            yield record
        finally:
            record[END] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def count(self, name: str, by: float = 1) -> None:
        """Add to a named count, recorded next to the spans."""
        if self.enabled:
            with self._count_lock:
                self.counts[name] = self.counts.get(name, 0) + by

    # -- patching ------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, name: Optional[str] = None,
             after=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``after(result)`` runs inside the span once the original
        returned; it adds counts taken from the result."""
        raw = owner.__dict__[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) \
            else None
        original = raw.__func__ if kind else raw
        label = name or "%s.%s" % (getattr(owner, "__name__", owner), attr)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            with tracer.span(label, layer):
                result = original(*args, **kwargs)
                if after is not None:
                    after(result)
                return result

        traced.__wrapped__ = original
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, kind(traced) if kind else traced)

    def install(self) -> None:
        """Wrap every layer boundary the ledger reports on."""
        from repro.client import clients
        from repro.core import compiler, rdfframe
        from repro.sparql import (cache, endpoint, engine, json_results,
                                  results)

        def payload_out(payload):
            self.count("endpoint.pages")
            self.count("endpoint.payload_bytes", len(payload))

        def rows_out(frame):
            self.count("dataframe.rows", len(frame))
            self.count("dataframe.cells", len(frame) * len(frame.columns))

        def sparql_out(text):
            self.count("core.sparql_bytes", len(text))

        self.wrap(rdfframe.RDFFrame, "query_model", "core")
        self.wrap(compiler, "compile_model", "core")
        self.wrap(rdfframe, "translate", "core", after=sparql_out)
        self.wrap(engine, "parse", "sparql.parser")
        self._wrap_plan(engine.Engine)
        self.wrap(engine.Engine, "evaluate_plan", "sparql.evaluator")
        self.wrap(engine.Engine, "stream", "sparql.evaluator")
        self.wrap(results.ResultStream, "fetch_until", "sparql.evaluator")
        self.wrap(results.ResultSet, "from_table", "sparql.results")
        self.wrap(results.ResultSet, "to_dataframe", "dataframe",
                  after=rows_out)
        self.wrap(endpoint.Endpoint, "request", "sparql.endpoint")
        self.wrap(json_results, "encode_results", "sparql.endpoint",
                  after=payload_out)
        self.wrap(json_results, "decode_results", "client")
        self.wrap(clients.HttpClient, "execute", "client")
        self.wrap(clients.EngineClient, "execute_model", "client")
        self.wrap(cache.ResultCache, "get", "sparql.cache")
        self.wrap(cache.ResultCache, "put", "sparql.cache")
        self.enabled = True

    def _wrap_plan(self, engine_class) -> None:
        """``Engine.plan``, with the span named cold or warm by whether
        the call raised the engine's plan-cache miss counter."""
        original = engine_class.__dict__["plan"]
        tracer = self

        def traced(eng, *args, **kwargs):
            if not tracer.enabled:
                return original(eng, *args, **kwargs)
            misses = eng.plan_cache_misses
            with tracer.span("Engine.plan.warm", "sparql.plan") as record:
                plan = original(eng, *args, **kwargs)
                if eng.plan_cache_misses > misses:
                    record[NAME] = "Engine.plan.cold"
                tracer.count(record[NAME])
                return plan

        traced.__wrapped__ = original
        self._patched.append((engine_class, "plan", original))
        engine_class.plan = traced

    def uninstall(self) -> None:
        self.enabled = False
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    # -- analysis ------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the time its child spans cover.

        Children of one span run one after another on one thread, so the
        time they cover is the sum of their durations."""
        own = {s[ID]: s[END] - s[START] for s in self.spans}
        for s in self.spans:
            if s[PARENT] in own:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def layer_self_ms(self) -> Dict[str, float]:
        """Summed self time per layer, in ms, over every span recorded."""
        own = self.self_times()
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            if s[LAYER] in out:
                out[s[LAYER]] += own[s[ID]] * 1000.0
        return out

    def op_breakdown(self) -> Dict[str, dict]:
        """Per op name: count, mean ms, mean self ms per layer, and the
        smallest share of an op's wall time that its child spans cover."""
        own = self.self_times()
        roots = {s[ID]: s for s in self.spans if s[OP] == s[ID]}
        covered = {op_id: 0.0 for op_id in roots}
        layers: Dict[int, Dict[str, float]] = {op_id: {} for op_id in roots}
        for s in self.spans:
            op_id = s[OP]
            if op_id not in roots or s[ID] == op_id:
                continue
            if s[PARENT] == op_id:
                covered[op_id] += s[END] - s[START]
            by_layer = layers[op_id]
            by_layer[s[LAYER]] = by_layer.get(s[LAYER], 0.0) + own[s[ID]]
        out: Dict[str, dict] = {}
        for op_id, root in roots.items():
            wall = root[END] - root[START]
            cell = out.setdefault(root[NAME], {
                "n": 0, "ms": 0.0, "coverage_min": 1.0, "layers_ms": {}})
            cell["n"] += 1
            cell["ms"] += wall * 1000.0
            if wall > 0:
                cell["coverage_min"] = min(cell["coverage_min"],
                                           covered[op_id] / wall)
            for layer, seconds in layers[op_id].items():
                cell["layers_ms"][layer] = \
                    cell["layers_ms"].get(layer, 0.0) + seconds * 1000.0
        for cell in out.values():
            cell["ms"] /= cell["n"]
            for layer in cell["layers_ms"]:
                cell["layers_ms"][layer] /= cell["n"]
        return out

    def dump(self) -> dict:
        """The raw spans and counts, as written out when a run ends."""
        return {"fields": ["id", "parent", "op", "name", "layer", "start",
                           "end"],
                "spans": [s[:END + 1] for s in self.spans],
                "counts": dict(self.counts)}
