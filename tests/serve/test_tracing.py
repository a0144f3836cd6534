"""End-to-end tracing through the serve tier.

The contract: one ``/map`` against a server with two pool workers
yields a single trace whose tree walks the server's ``handle`` ->
scheduler -> pool worker -> pipeline stages, exposed via
``/debug/traces``, with span ids that are byte-identical when the same
request is replayed against a fresh server.
"""

import asyncio

from repro.obs.trace import TraceBuffer, Tracer, tree_signature
from repro.serve.loadgen import LoadProfile, http_request_json, plan_requests
from repro.serve.scheduler import PROFILE_TOP, BatchScheduler
from repro.serve.service import MappingService, ServeSettings, ServerThread


def _map_body(seed=0, **extra):
    return {
        "topology": "grid4x4",
        "graph": {"kind": "generate", "instance": "p2p-Gnutella", "seed": seed},
        "seed": seed,
        "config": {"nh": 1},
        **extra,
    }


def _service(**scheduler_kwargs):
    tracer = Tracer(process="serve", buffer=TraceBuffer())
    scheduler = BatchScheduler(
        max_batch=8, tracer=tracer, **scheduler_kwargs
    )
    return MappingService(scheduler), scheduler


def _names(spans):
    return {s["name"] for s in spans}


class TestServiceTracing:
    def test_map_response_carries_trace_id_and_tree_is_complete(self):
        service, scheduler = _service()
        try:
            status, body, _ = asyncio.run(service.handle("map", _map_body()))
            assert status == 200 and body["ok"]
            trace_id = body["trace_id"]
            spans = service.tracer.buffer.get(trace_id)
            assert _names(spans) >= {
                "handle", "cache_lookup", "queue_wait", "compute",
                "pipeline", "stage:partition", "stage:initial_mapping",
                "stage:enhance",
            }
            # every non-root span parents inside the trace
            ids = {s["span_id"] for s in spans}
            handle = next(s for s in spans if s["name"] == "handle")
            for span in spans:
                if span is not handle:
                    assert span["parent_id"] in ids
        finally:
            scheduler.close()

    def test_debug_traces_op_exposes_the_snapshot(self):
        service, scheduler = _service()
        try:
            asyncio.run(service.handle("map", _map_body()))
            status, snap, _ = asyncio.run(
                service.handle("traces", {"recent": 5, "slowest": 2})
            )
            assert status == 200
            assert snap["process"] == "serve"
            assert snap["buffer"]["traces"] == 1
            (entry,) = snap["recent"]
            assert entry["tree"][0]["name"] == "handle"
        finally:
            scheduler.close()

    def test_sample_false_hint_opts_out_of_retention(self):
        service, scheduler = _service()
        try:
            status, body, _ = asyncio.run(
                service.handle("map", _map_body(trace={"sample": False}))
            )
            assert status == 200 and body["ok"]
            assert "trace_id" not in body
            assert len(service.tracer.buffer) == 0
        finally:
            scheduler.close()

    def test_cached_replay_traces_the_cache_hit(self):
        service, scheduler = _service()
        try:
            asyncio.run(service.handle("map", _map_body()))
            status, body, _ = asyncio.run(service.handle("map", _map_body()))
            assert status == 200 and body["cached"]
            spans = service.tracer.buffer.get(body["trace_id"])
            hits = [
                s for s in spans
                if s["name"] == "cache_lookup" and s["attrs"].get("hit")
            ]
            assert hits
        finally:
            scheduler.close()

    def test_quality_gauges_and_stage_histograms_in_metrics(self):
        service, scheduler = _service()
        try:
            asyncio.run(service.handle("map", _map_body()))
            out = scheduler.metrics.render_json()
            assert out["quality_cut_edges"]["grid4x4"] > 0
            assert "grid4x4" in out["quality_objective"]
            for stage in ("partition", "initial_mapping", "enhance"):
                assert out[f"stage_seconds_{stage}"]["count"] >= 1
        finally:
            scheduler.close()

    def test_disabled_tracer_serves_without_spans(self):
        tracer = Tracer(process="serve", buffer=TraceBuffer(), enabled=False)
        scheduler = BatchScheduler(max_batch=8, tracer=tracer)
        service = MappingService(scheduler)
        try:
            status, body, _ = asyncio.run(service.handle("map", _map_body()))
            assert status == 200 and body["ok"]
            assert "trace_id" not in body
            assert len(tracer.buffer) == 0
        finally:
            scheduler.close()


class TestPoolSpanShipping:
    def test_pool_worker_spans_merge_into_the_scheduler_buffer(self):
        service, scheduler = _service(workers=1)
        try:
            status, body, _ = asyncio.run(service.handle("map", _map_body()))
            assert status == 200 and body["ok"]
            spans = service.tracer.buffer.get(body["trace_id"])
            pool_spans = [s for s in spans if s["process"] == "pool"]
            assert _names(pool_spans) >= {
                "pool_execute", "pipeline", "stage:partition",
            }
            # the pool subtree parents under the scheduler's compute span
            compute = next(s for s in spans if s["name"] == "compute")
            execute = next(s for s in spans if s["name"] == "pool_execute")
            assert execute["parent_id"] == compute["span_id"]
        finally:
            scheduler.close()


class TestProfileHook:
    def test_profile_attaches_hotspot_frames_to_the_compute_span(self):
        service, scheduler = _service(profile=True)
        try:
            status, body, _ = asyncio.run(service.handle("map", _map_body()))
            assert status == 200 and body["ok"]
            spans = service.tracer.buffer.get(body["trace_id"])
            compute = next(s for s in spans if s["name"] == "compute")
            frames = compute["attrs"]["profile"]
            assert frames and len(frames) <= PROFILE_TOP
            assert all("frame" in f and "cumtime" in f for f in frames)
        finally:
            scheduler.close()


class TestLoadgenTraceSample:
    def test_sampled_fraction_is_deterministic(self):
        profile = LoadProfile(
            scenario="smoke", requests=40, rate=200.0, trace_sample=0.25
        )
        first = plan_requests(profile)
        second = plan_requests(profile)
        assert [b for _t, b in first] == [b for _t, b in second]
        opted_out = sum(
            1 for _t, b in first if b.get("trace") == {"sample": False}
        )
        assert 0 < opted_out < 40

    def test_sample_one_sends_no_hints_and_matches_plain_plan(self):
        plain = plan_requests(LoadProfile(scenario="smoke", requests=20))
        sampled = plan_requests(
            LoadProfile(scenario="smoke", requests=20, trace_sample=1.0)
        )
        assert plain == sampled
        assert all("trace" not in b for _t, b in plain)


class TestClusterTracing:
    """The acceptance walk: a real server process with 2 pool workers."""

    def _run_server_once(self, body):
        with ServerThread(ServeSettings(port=0, workers=2)) as srv:
            status, reply = asyncio.run(
                http_request_json(srv.host, srv.port, "POST", "/map", body)
            )
            assert status == 200 and reply["ok"], reply
            status, snap = asyncio.run(
                http_request_json(srv.host, srv.port, "GET", "/debug/traces")
            )
            assert status == 200
            entry = next(
                e for e in snap["recent"]
                if e["trace_id"] == reply["trace_id"]
            )
            return reply, snap, entry

    def test_one_map_yields_one_cross_process_trace_tree(self):
        _reply, snap, entry = self._run_server_once(_map_body())
        assert snap["process"] == "serve"
        # one tree, rooted at the server's handle span
        (root,) = entry["tree"]
        assert root["name"] == "handle" and root["process"] == "serve"

        def walk(node):
            yield node
            for child in node["children"]:
                yield from walk(child)

        compute = next(n for n in walk(root) if n["name"] == "compute")
        assert compute["process"] == "serve"
        below = {n["name"]: n["process"] for n in walk(compute) if n is not compute}
        assert below == {
            "pool_execute": "pool",
            "pipeline": "pool",
            "stage:partition": "pool",
            "stage:initial_mapping": "pool",
            "stage:enhance": "pool",
        }

    def test_span_trees_are_byte_identical_across_cluster_reruns(self):
        body = _map_body(seed=3)
        _reply1, _snap1, entry1 = self._run_server_once(body)
        _reply2, _snap2, entry2 = self._run_server_once(body)
        assert entry1["trace_id"] == entry2["trace_id"]
        assert tree_signature(entry1["spans"]) == tree_signature(
            entry2["spans"]
        )
