"""Deterministic span trees: ids, buffers, merging, signatures."""

import json

import pytest

from repro.obs.trace import (
    Span,
    SpanContext,
    TraceBuffer,
    Tracer,
    build_tree,
    derive_span_id,
    derive_trace_id,
    tree_signature,
)


def _payload(seed=0):
    return {
        "topology": "grid4x4",
        "graph": {"kind": "generate", "instance": "tri", "seed": seed},
        "seed": seed,
    }


class TestDeterministicIds:
    def test_trace_id_is_a_pure_function_of_the_payload(self):
        assert derive_trace_id(_payload()) == derive_trace_id(_payload())
        assert derive_trace_id(_payload(0)) != derive_trace_id(_payload(1))
        # canonicalization: key order cannot matter
        assert derive_trace_id({"a": 1, "b": 2}) == derive_trace_id(
            {"b": 2, "a": 1}
        )

    def test_span_id_depends_on_position_only(self):
        a = derive_span_id("t", "p", "compute", 0)
        assert a == derive_span_id("t", "p", "compute", 0)
        assert a != derive_span_id("t", "p", "compute", 1)
        assert a != derive_span_id("t", "p", "other", 0)
        assert len(a) == 16 and int(a, 16) >= 0

    def test_same_request_same_tree_across_fresh_processes(self):
        # Two tracers with fresh buffers stand in for two server runs:
        # the replayed request must produce byte-identical signatures.
        def run_once():
            tracer = Tracer(process="serve", buffer=TraceBuffer())
            ctx = tracer.start_trace(_payload())
            with tracer.span("handle", ctx) as handle:
                with tracer.span("compute", handle.context) as compute:
                    child = tracer.span("stage:partition", compute.context)
                    child.finish(duration=0.123)
            return tracer.buffer.get(ctx.trace_id)

        first, second = run_once(), run_once()
        assert tree_signature(first) == tree_signature(second)


class TestSpanContext:
    def test_wire_round_trip(self):
        ctx = SpanContext("abc", "def", True)
        assert SpanContext.from_wire(ctx.to_wire()) == ctx

    @pytest.mark.parametrize(
        "bad",
        [None, 17, "str", [], {}, {"span_id": "x"}, {"trace_id": ""},
         {"trace_id": 7}],
    )
    def test_malformed_wire_is_none_never_raises(self, bad):
        assert SpanContext.from_wire(bad) is None

    def test_unsampled_survives_the_wire(self):
        ctx = SpanContext.from_wire(
            {"trace_id": "t", "span_id": "", "sampled": False}
        )
        assert ctx is not None and not ctx.sampled


class TestSpanLifecycle:
    def test_context_manager_records_into_buffer(self):
        tracer = Tracer(process="p", buffer=TraceBuffer())
        ctx = tracer.start_trace(_payload())
        with tracer.span("handle", ctx, op="map") as span:
            span.set(cached=False)
        (got,) = tracer.buffer.get(ctx.trace_id)
        assert got["name"] == "handle"
        assert got["process"] == "p"
        assert got["status"] == "ok"
        assert got["attrs"] == {"op": "map", "cached": False}
        assert got["duration"] >= 0.0

    def test_exception_marks_error_and_propagates(self):
        tracer = Tracer(buffer=TraceBuffer())
        ctx = tracer.start_trace(_payload())
        with pytest.raises(RuntimeError):
            with tracer.span("handle", ctx):
                raise RuntimeError("boom")
        (got,) = tracer.buffer.get(ctx.trace_id)
        assert got["status"] == "error"
        assert got["attrs"]["error"] == "RuntimeError"

    def test_duration_override_for_premeasured_timings(self):
        tracer = Tracer(buffer=TraceBuffer())
        ctx = tracer.start_trace(_payload())
        span = tracer.span("stage:enhance", ctx)
        span.finish(duration=1.5)
        (got,) = tracer.buffer.get(ctx.trace_id)
        assert got["duration"] == 1.5

    def test_double_finish_records_once(self):
        tracer = Tracer(buffer=TraceBuffer())
        ctx = tracer.start_trace(_payload())
        span = tracer.span("x", ctx)
        span.finish()
        span.finish(status="error")
        (got,) = tracer.buffer.get(ctx.trace_id)
        assert got["status"] == "ok"
        assert len(tracer.buffer.get(ctx.trace_id)) == 1

    def test_span_dicts_are_json_serializable(self):
        tracer = Tracer(buffer=TraceBuffer())
        ctx = tracer.start_trace(_payload())
        with tracer.span("handle", ctx, n=4):
            pass
        json.dumps(tracer.buffer.get(ctx.trace_id))


class TestNullSpans:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(buffer=TraceBuffer(), enabled=False)
        ctx = tracer.start_trace(_payload())
        assert ctx.trace_id == ""
        with tracer.span("handle", ctx) as span:
            span.set(anything=1)
            with tracer.span("child", span.context) as child:
                child.finish(duration=1.0)
        assert len(tracer.buffer) == 0

    def test_unsampled_trace_records_nothing(self):
        tracer = Tracer(buffer=TraceBuffer())
        ctx = tracer.start_trace(_payload(), sampled=False)
        with tracer.span("handle", ctx) as span:
            with tracer.span("child", span.context):
                pass
        assert len(tracer.buffer) == 0

    def test_null_span_forwards_parent_context(self):
        tracer = Tracer(buffer=TraceBuffer(), enabled=False)
        parent = SpanContext("t", "s", True)
        span = tracer.span("x", parent)
        assert span.context is parent

    def test_missing_parent_is_a_null_span(self):
        tracer = Tracer(buffer=TraceBuffer())
        with tracer.span("x", None) as span:
            pass
        assert len(tracer.buffer) == 0
        assert span.context.trace_id == ""


class TestTraceBuffer:
    def test_ring_evicts_least_recently_touched(self):
        buf = TraceBuffer(max_traces=2)
        for tid in ("a", "b", "c"):
            buf.add({"trace_id": tid, "span_id": "s", "name": "x"})
        assert buf.get("a") == []
        assert buf.evicted_traces == 1
        assert [tid for tid, _ in buf.traces()] == ["c", "b"]

    def test_span_cap_counts_drops(self):
        buf = TraceBuffer(max_spans_per_trace=2)
        for i in range(4):
            buf.add({"trace_id": "t", "span_id": f"s{i}", "name": "x"})
        assert len(buf.get("t")) == 2
        assert buf.dropped_spans == 2
        assert buf.stats()["dropped_spans"] == 2

    def test_next_index_counts_same_named_siblings(self):
        buf = TraceBuffer()
        assert buf.next_index("t", "p", "compute") == 0
        assert buf.next_index("t", "p", "compute") == 1
        assert buf.next_index("t", "p", "other") == 0
        assert buf.next_index("t", "q", "compute") == 0

    def test_ingest_merges_foreign_spans(self):
        buf = TraceBuffer()
        buf.ingest(
            [{"trace_id": "t", "span_id": "a", "name": "pool"}, "junk", {}]
        )
        assert len(buf.get("t")) == 1


class TestTreesAndSignatures:
    def test_build_tree_nests_and_sorts_children(self):
        spans = [
            {"name": "b", "span_id": "2", "parent_id": "1"},
            {"name": "a", "span_id": "3", "parent_id": "1"},
            {"name": "root", "span_id": "1", "parent_id": ""},
        ]
        (root,) = build_tree(spans)
        assert root["name"] == "root"
        assert [c["name"] for c in root["children"]] == ["a", "b"]

    def test_orphans_surface_as_roots(self):
        spans = [{"name": "x", "span_id": "9", "parent_id": "missing"}]
        roots = build_tree(spans)
        assert len(roots) == 1 and roots[0]["name"] == "x"

    def test_signature_excludes_timing(self):
        a = [{"name": "x", "span_id": "1", "parent_id": "", "process": "p",
              "status": "ok", "duration": 0.5, "start": 1.0}]
        b = [{"name": "x", "span_id": "1", "parent_id": "", "process": "p",
              "status": "ok", "duration": 9.9, "start": 2.0}]
        assert tree_signature(a) == tree_signature(b)

    def test_signature_includes_structure(self):
        a = [{"name": "x", "span_id": "1", "parent_id": "", "process": "p"}]
        b = [{"name": "y", "span_id": "1", "parent_id": "", "process": "p"}]
        assert tree_signature(a) != tree_signature(b)


class TestSnapshotsAndMerge:
    def _spans(self, tracer, payload):
        ctx = tracer.start_trace(payload)
        with tracer.span("handle", ctx) as span:
            with tracer.span("compute", span.context):
                pass
        return ctx

    def test_debug_snapshot_shape(self):
        tracer = Tracer(process="serve", buffer=TraceBuffer())
        self._spans(tracer, _payload())
        snap = tracer.debug_snapshot(recent=5, slowest=2)
        assert snap["process"] == "serve"
        assert snap["buffer"]["traces"] == 1
        (entry,) = snap["recent"]
        assert entry["span_count"] == 2
        assert entry["tree"][0]["name"] == "handle"
        assert entry["duration"] >= 0.0
        assert len(snap["slowest"]) == 1


class TestServiceOwnsItsTracer:
    def test_a_second_service_leaves_the_first_ones_tracer_alone(self):
        from repro.serve.service import ServeSettings, build_service

        first = build_service(ServeSettings(trace=False, trace_buffer=8))
        second = build_service(ServeSettings(trace=True, trace_buffer=256))
        try:
            assert first.tracer is not second.tracer
            assert first.tracer.enabled is False
            assert first.tracer.buffer.max_traces == 8
            assert first.tracer.process == "serve"
            assert second.tracer.buffer.max_traces == 256
        finally:
            first.scheduler.close()
            second.scheduler.close()
