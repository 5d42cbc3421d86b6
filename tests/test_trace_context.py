"""Process-safe trace contexts (repro.obs.trace + repro.mpp.workers).

A parent captures a picklable :class:`TraceContext` at the span where
worker output belongs; workers buffer spans in a :class:`ContextTracer`
and the parent merges the exported spans back on join.  These tests pin
the merge anchoring (pinned capture span, foreign trace rejection) and
where worker spans land in a distributed loop's trace on both
substrates (inline-vs-pool shape equality itself is pinned
in ``tests/test_mpp_workers.py``).
"""

from __future__ import annotations

import pytest

from repro.mpp import (
    Cluster,
    WorkerPool,
    distributed_pagerank,
    run_segment_tasks,
)
from repro.obs import NULL_TRACER, Tracer, build_trace
from repro.obs.trace import ContextTracer, TraceContext, span_from_dict
from tests.conftest import SMALL_EDGES


def _double(value):
    return value * 2


def shape(span, depth=0):
    """(depth, name, kind) triples in document order — equal shapes mean
    equal trees regardless of timings and ids."""
    rows = [(depth, span.name, span.kind)]
    for child in span.children:
        rows.extend(shape(child, depth + 1))
    return rows


class TestTraceContextRoundTrip:
    def test_context_captures_current_span_path(self):
        # The merge lands under the span current at capture time, not
        # under whatever span is open when the worker output arrives.
        tracer = Tracer("trace")
        with tracer.span("outer"):
            with tracer.span("inner") as inner:
                context = tracer.context()
                worker = ContextTracer(context)
                with worker.span("segment", kind="worker"):
                    pass
            with tracer.span("sibling") as sibling:
                tracer.merge(context, worker.export_spans())
        assert context.trace_id == tracer.trace_id
        assert [c.name for c in inner.children] == ["segment"]
        assert sibling.children == []

    def test_span_from_dict_inverts_to_dict(self):
        tracer = Tracer()
        with tracer.span("a", kind="phase", label="x"):
            tracer.event("e", kind="event", n=1)
        tracer.finish()
        data = tracer.root.to_dict()
        rebuilt = span_from_dict(data)
        assert rebuilt.to_dict() == data


class TestMerge:
    def _worker_spans(self, context, segment=0):
        worker = ContextTracer(context)
        with worker.span("segment", kind="worker", segment=segment):
            worker.event("kernel", kind="event")
        return worker.export_spans()

    def test_merges_under_the_capture_span(self):
        tracer = Tracer("trace")
        with tracer.span("compute", kind="compute") as compute:
            context = tracer.context()
            spans = self._worker_spans(context)
        tracer.merge(context, spans)  # capture span already closed: fine
        assert [c.name for c in compute.children] == ["segment"]
        segment = compute.children[0]
        assert segment.kind == "worker"
        assert segment.attributes["segment"] == 0
        assert segment.children[0].name == "kernel"

    def test_merge_rejects_foreign_trace(self):
        tracer = Tracer("trace")
        foreign = TraceContext("not-this-trace", 0)
        with pytest.raises(ValueError):
            tracer.merge(foreign, [])


class TestRunSegmentTasks:
    def test_untraced_run_ships_no_context(self):
        results = run_segment_tasks(NULL_TRACER, _double, [(1,), (2,)])
        assert results == [2, 4]

    def test_traced_inline_run_merges_worker_spans(self):
        tracer = Tracer("trace")
        with tracer.span("compute", kind="compute") as compute:
            results = run_segment_tasks(tracer, _double, [(1,), (2,), (3,)])
        assert results == [2, 4, 6]
        segments = [c for c in compute.children if c.kind == "worker"]
        assert [s.attributes["segment"] for s in segments] == [0, 1, 2]


class TestMppWorkerSpanPlacement:
    """A worker handed a TraceContext produces spans that
    merge into the parent trace under the correct loop/iteration/compute
    parents, in segment order — on the inline substrate and on a real
    worker pool alike."""

    def _traced_run(self, pool):
        tracer = Tracer()
        result = distributed_pagerank(Cluster(3), SMALL_EDGES,
                                      iterations=3, tracer=tracer,
                                      pool=pool)
        return build_trace(tracer, loops=[result.telemetry])

    @pytest.mark.parametrize("substrate", ["inline", "pool"])
    def test_worker_spans_nest_under_loop_iteration_compute(self,
                                                            substrate):
        if substrate == "pool":
            with WorkerPool(3) as pool:
                trace = self._traced_run(pool)
        else:
            trace = self._traced_run(None)
        loop = trace.root.find("loop:pr_state", kind="loop")
        assert loop is not None
        iterations = [c for c in loop.children if c.kind == "iteration"]
        assert len(iterations) == 3
        for iteration in iterations:
            computes = [c for c in iteration.children
                        if c.kind == "compute"]
            exchanges = [c for c in iteration.children
                         if c.kind == "exchange"]
            assert len(computes) == 2  # contributions + apply_update
            assert len(exchanges) == 1
            # The phase names are the exchange plan's operations.
            assert [c.attributes["operation"] for c in iteration.children
                    if c.kind in ("compute", "exchange")] \
                == ["contributions", "shuffle_partials", "apply_update"]
            for compute in computes:
                workers = [c for c in compute.children
                           if c.kind == "worker"]
                assert [w.attributes["segment"] for w in workers] \
                    == [0, 1, 2]
