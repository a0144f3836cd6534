"""Front-end behavior: parsing, ops, HTTP transport, stdio, hooks."""

import asyncio
import json

import numpy as np
import pytest

from repro.api.pipeline import Pipeline
from repro.api.registry import REGISTRY, VERIFY
from repro.api.stages import StageContext
from repro.api.topology import Topology
from repro.errors import MappingError, ReproError
from repro.graphs import generators as gen
from repro.serve.loadgen import http_request_json
from repro.serve.scheduler import BatchScheduler
from repro.serve.service import (
    ADMISSION_HOOK,
    MappingService,
    ServeSettings,
    ServerThread,
    parse_config,
    parse_request,
    register_admission_hook,
    serve_stdio,
)


@pytest.fixture
def service():
    scheduler = BatchScheduler(window_s=0.01, max_batch=8)
    svc = MappingService(scheduler)
    yield svc
    scheduler.close()
    register_admission_hook(None)


def _map_body(seed=0, **extra):
    return {
        "topology": "grid4x4",
        "graph": {"kind": "generate", "instance": "p2p-Gnutella", "seed": seed},
        "seed": seed,
        "config": {"nh": 1},
        **extra,
    }


class TestParsing:
    def test_unknown_request_key(self):
        with pytest.raises(ReproError, match="unknown request keys"):
            parse_request({"topology": "grid4x4", "bogus": 1})

    def test_missing_topology(self):
        with pytest.raises(ReproError, match="topology"):
            parse_request({"graph": {}})

    def test_unknown_config_key(self):
        with pytest.raises(ReproError, match="unknown config keys"):
            parse_request({"topology": "grid4x4", "config": {"zzz": 1}})

    def test_bad_deadline(self):
        with pytest.raises(ReproError, match="deadline"):
            parse_request({"topology": "grid4x4", "deadline_s": -1})

    def test_enhance_requires_mu(self):
        with pytest.raises(ReproError, match="mu"):
            parse_request({"topology": "grid4x4"}, require_mu=True)

    def test_unknown_graph_instance(self):
        with pytest.raises(ReproError, match="unknown instance"):
            parse_request(
                {"topology": "grid4x4", "graph": {"instance": "nope"}}
            )

    def test_size_limit_applies_at_parse_time(self):
        with pytest.raises(ReproError, match="admits at most"):
            parse_request(_map_body(), max_graph_n=50)  # spec n_max=192

    def test_config_spellings(self):
        cfg = parse_config({"case": "c3", "nh": 4, "strategy": "kl"})
        assert cfg.initial_mapping == "c3"
        assert cfg.timer.n_hierarchies == 4
        assert cfg.timer.swap_strategy == "kl"
        assert cfg.pre_verify == (ADMISSION_HOOK,)
        assert "mapping-valid" in cfg.post_verify


class TestOps:
    def test_map_round_trip_matches_direct(self, service):
        body = _map_body(seed=5)
        status, reply, _ = asyncio.run(service.handle("map", body))
        assert status == 200 and reply["ok"]
        request = parse_request(body)
        direct = Pipeline(request.topology, request.config).run(
            request.graph.build(), seed=request.seed
        )
        assert reply["mu"] == [int(x) for x in direct.mu_final]
        assert reply["identity_hash"] == direct.identity_hash
        assert reply["batch"]["size"] == 1

    def test_malformed_inline_graph_fails_alone(self, service):
        # Same group, same window: the bad edge fails only its request.
        bad = {
            "topology": "grid4x4",
            "graph": {"kind": "edges", "n": 3, "edges": [[0, 7, 1]]},
            "config": {"nh": 1},
        }
        good = _map_body(seed=5)

        async def go():
            return await asyncio.wait_for(
                asyncio.gather(
                    service.handle("map", bad), service.handle("map", good)
                ),
                timeout=30,
            )

        (bad_status, bad_reply, _), (status, reply, _) = asyncio.run(go())
        assert bad_status == 400 and bad_reply["error"] == "bad_request"
        assert status == 200 and reply["batch"]["size"] == 2
        request = parse_request(good)
        direct = Pipeline(request.topology, request.config).run(
            request.graph.build(), seed=request.seed
        )
        assert reply["mu"] == [int(x) for x in direct.mu_final]
        assert service.scheduler.pending == 0

    def test_enhance_round_trip(self, service):
        status, mapped, _ = asyncio.run(service.handle("map", _map_body(seed=1)))
        assert status == 200
        body = _map_body(seed=1, mu=mapped["mu"])
        status, reply, _ = asyncio.run(service.handle("enhance", body))
        assert status == 200 and reply["ok"]
        assert reply["metrics"]["coco_after"] <= reply["metrics"]["coco_before"]
        # block sizes preserved (the balance contract TIMER keeps)
        assert sorted(np.bincount(reply["mu"])) == sorted(np.bincount(mapped["mu"]))

    def test_unknown_topology_is_400(self, service):
        status, reply, _ = asyncio.run(
            service.handle("map", _map_body() | {"topology": "nope"})
        )
        assert status == 400 and reply["error"] == "bad_request"

    def test_unknown_op_is_404(self, service):
        status, reply, _ = asyncio.run(service.handle("frob", {}))
        assert status == 404

    def test_healthz(self, service):
        status, reply, _ = asyncio.run(service.handle("healthz", {}))
        assert status == 200
        assert reply["status"] == "ok"
        assert "grid4x4" in reply["topologies"]
        assert "sessions" in reply["cache"]

    def test_metrics_formats(self, service):
        asyncio.run(service.handle("map", _map_body()))
        status, text, _ = asyncio.run(service.handle("metrics", {}))
        assert status == 200 and isinstance(text, str)
        assert "repro_serve_requests_total 1" in text
        assert "repro_serve_labelings_computed" in text
        status, data, _ = asyncio.run(
            service.handle("metrics", {"format": "json"})
        )
        assert data["requests_total"] == 1
        assert data["labelings_computed"] == 1

    def test_batch_op_shares_one_window(self, service):
        payload = {
            "requests": [
                {**_map_body(seed=0), "id": "a"},
                {**_map_body(seed=0), "id": "b"},
                {**_map_body(seed=1), "id": "c"},
            ]
        }
        status, reply, _ = asyncio.run(service.handle("batch", payload))
        assert status == 200 and reply["ok"]
        by_id = {r["id"]: r for r in reply["results"]}
        assert set(by_id) == {"a", "b", "c"}
        assert all(r["status_code"] == 200 for r in reply["results"])
        assert by_id["a"]["batch"]["size"] == 3
        assert by_id["a"]["mu"] == by_id["b"]["mu"]  # coalesced pair

    def test_batch_op_needs_requests(self, service):
        status, reply, _ = asyncio.run(service.handle("batch", {}))
        assert status == 400

    def test_batch_op_rejects_non_object_items(self, service):
        status, reply, _ = asyncio.run(
            service.handle("batch", {"requests": ["x", _map_body()]})
        )
        assert status == 400
        assert "JSON object" in reply["message"]

    def test_batch_item_status_survives_healthz_body(self, service):
        status, reply, _ = asyncio.run(
            service.handle("batch", {"requests": [{"op": "healthz"}]})
        )
        item = reply["results"][0]
        assert item["status_code"] == 200
        assert item["status"] == "ok"  # healthz's own field intact


class TestAdmissionHook:
    def test_hook_registered_and_enforces_limit(self):
        scheduler = BatchScheduler(window_s=0.01)
        try:
            svc = MappingService(scheduler, max_graph_n=10)
            assert svc.admission_hook == f"{ADMISSION_HOOK}-10"
            hook = REGISTRY.get(VERIFY, svc.admission_hook)
            ctx = StageContext(
                ga=gen.grid(4, 4), topology=Topology.from_name("grid4x4")
            )
            with pytest.raises(MappingError, match="admits at most"):
                hook(ctx)
        finally:
            scheduler.close()
            register_admission_hook(None)

    def test_two_services_keep_distinct_limits(self):
        """The hook name encodes the limit: no cross-service clobbering."""
        s1, s2 = BatchScheduler(window_s=0.01), BatchScheduler(window_s=0.01)
        try:
            a = MappingService(s1, max_graph_n=10)
            b = MappingService(s2)  # no limit
            assert a.admission_hook != b.admission_hook
            ctx = StageContext(
                ga=gen.grid(4, 4), topology=Topology.from_name("grid4x4")
            )
            REGISTRY.get(VERIFY, b.admission_hook)(ctx)  # no-op
            with pytest.raises(MappingError):
                REGISTRY.get(VERIFY, a.admission_hook)(ctx)  # still 10
        finally:
            s1.close()
            s2.close()
            register_admission_hook(None)

    def test_oversized_request_rejected_before_compute(self):
        scheduler = BatchScheduler(window_s=0.01)
        try:
            svc = MappingService(scheduler, max_graph_n=50)
            status, reply, _ = asyncio.run(svc.handle("map", _map_body()))
            assert status == 400
            assert "admits at most" in reply["message"]
            assert scheduler.metrics.render_json()["requests_total"] == 0
        finally:
            scheduler.close()
            register_admission_hook(None)


class TestHTTP:
    @pytest.fixture(scope="class")
    def server(self):
        with ServerThread(
            ServeSettings(port=0, window_ms=10, max_batch=8)
        ) as srv:
            yield srv
        register_admission_hook(None)

    def _call(self, server, method, path, body=None):
        return asyncio.run(
            http_request_json(server.host, server.port, method, path, body)
        )

    def test_map_over_http(self, server):
        status, reply = self._call(server, "POST", "/map", _map_body(seed=2))
        assert status == 200 and reply["ok"]
        assert len(reply["mu"]) > 0

    def test_healthz_and_metrics(self, server):
        status, reply = self._call(server, "GET", "/healthz")
        assert status == 200 and reply["status"] == "ok"
        status, text = self._call(server, "GET", "/metrics")
        assert status == 200 and "repro_serve_uptime_seconds" in text

    def test_unknown_path_404(self, server):
        status, reply = self._call(server, "GET", "/nope")
        assert status == 404

    def test_wrong_method_405(self, server):
        status, reply = self._call(server, "GET", "/map")
        assert status == 405

    def test_invalid_json_400(self, server):
        async def go():
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(
                b"POST /map HTTP/1.1\r\nHost: x\r\nConnection: close\r\n"
                b"Content-Length: 9\r\n\r\nnot json!"
            )
            await writer.drain()
            data = await reader.read()
            writer.close()
            return data

        raw = asyncio.run(go())
        assert b"400" in raw.split(b"\r\n", 1)[0]
        assert b"invalid JSON" in raw

    def test_oversized_headers_rejected(self, server):
        # The server may reset the connection while the client is still
        # writing (it responds 400 and closes at the 64KB cap, mid-way
        # through our ~96KB of headers).  Both observations -- a 400
        # status line or a connection reset before one could be read --
        # prove the rejection; which one the client sees is a TCP race.
        async def go():
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            try:
                writer.write(b"GET /healthz HTTP/1.1\r\n")
                filler = b"X-Filler: " + b"a" * 8000 + b"\r\n"
                for _ in range(12):  # ~96KB of headers > the 64KB cap
                    writer.write(filler)
                await writer.drain()
                return await reader.read()
            except ConnectionResetError:
                return None
            finally:
                writer.close()

        raw = asyncio.run(go())
        assert raw is None or b"400" in raw.split(b"\r\n", 1)[0]

    def test_keep_alive_two_requests_one_connection(self, server):
        async def go():
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            req = (b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
            out = []
            for _ in range(2):
                writer.write(req)
                await writer.drain()
                status_line = await reader.readline()
                out.append(status_line)
                length = 0
                while True:
                    line = await reader.readline()
                    if line in (b"\r\n", b"\n"):
                        break
                    if line.lower().startswith(b"content-length"):
                        length = int(line.split(b":")[1])
                await reader.readexactly(length)
            writer.close()
            return out

        lines = asyncio.run(go())
        assert all(b"200" in line for line in lines)


class TestStdio:
    def test_json_lines_round_trip(self, service):
        lines = [
            json.dumps({"op": "healthz", "id": 1}),
            json.dumps({"op": "map", "id": 2, **_map_body(seed=3)}),
            "not json",
            "5",  # valid JSON, not an object: must not kill the loop
            json.dumps({"op": "metrics", "format": "json", "id": 4}),
        ]
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(("\n".join(lines) + "\n").encode())
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        replies = [json.loads(line) for line in out]
        assert len(replies) == 5
        # Requests are pipelined, so responses are matched by echoed id,
        # not by position (only the malformed-line errors, answered
        # inline by the read loop, keep their relative input order).
        by_id = {r["id"]: r for r in replies if "id" in r}
        errors = [r for r in replies if "id" not in r]
        assert by_id[1]["status_code"] == 200 and by_id[1]["status"] == "ok"
        assert isinstance(by_id[2]["mu"], list)
        assert [e["error"] for e in errors] == ["bad_request", "bad_request"]
        # The map line precedes the metrics line, and dispatch tasks
        # start in admission order, so the metrics snapshot sees it.
        assert by_id[4]["requests_total"] == 1

    def test_in_flight_pipelining_returns_out_of_order(self, service):
        # A map line parks in the 10ms batching window; a healthz line
        # sent right behind it must NOT wait for it -- its response
        # overtakes the map's.  This is the contract that makes many
        # back-to-back map lines share one batching window.
        lines = [
            json.dumps({"op": "map", "id": "slow", **_map_body(seed=11)}),
            json.dumps({"op": "healthz", "id": "quick"}),
        ]
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(("\n".join(lines) + "\n").encode())
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        replies = [json.loads(line) for line in out]
        assert [r["id"] for r in replies] == ["quick", "slow"]
        assert all(r["status_code"] == 200 for r in replies)
        assert isinstance(replies[1]["mu"], list)

    def test_concurrent_map_lines_share_a_batch(self, service):
        # Two identical-config map lines admitted within one window are
        # batched together -- the whole point of pipelining stdio.
        lines = [
            json.dumps({"op": "map", "id": i, **_map_body(seed=i)})
            for i in (1, 2)
        ]
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(("\n".join(lines) + "\n").encode())
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        replies = [json.loads(line) for line in out]
        assert {r["id"] for r in replies} == {1, 2}
        assert all(r["batch"]["size"] == 2 for r in replies)

    def test_oversized_line_answers_error_and_continues(self, service):
        # A line beyond the reader's limit must not kill the session:
        # structured error out, and the *next* line is still served.
        lines = [
            "x" * 4096,  # oversized garbage (no JSON needed)
            json.dumps({"op": "healthz", "id": 9}),
        ]
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader(limit=256)
            reader.feed_data(("\n".join(lines) + "\n").encode())
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        replies = [json.loads(line) for line in out]
        assert replies[0]["error"] == "bad_request"
        assert "size limit" in replies[0]["message"]
        assert replies[1]["status_code"] == 200 and replies[1]["id"] == 9

    def test_oversized_final_line_without_newline(self, service):
        out: list[str] = []

        async def go():
            reader = asyncio.StreamReader(limit=256)
            reader.feed_data(b"y" * 4096)  # torn stream, no terminator
            reader.feed_eof()
            await serve_stdio(service, reader, out.append)

        asyncio.run(go())
        assert json.loads(out[0])["error"] == "bad_request"


class TestFailureStatusMapping:
    def test_breaker_open_maps_to_503_with_retry_after(self, service):
        body = _map_body(seed=2)
        gkey = parse_request(body).group_key()
        breaker = service.scheduler.breaker_for(gkey)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        status, reply, headers = asyncio.run(service.handle("map", body))
        assert status == 503
        assert reply["error"] == "circuit_open"
        assert float(headers["Retry-After"]) > 0

    def test_transient_exhaustion_maps_to_503(self, service):
        from repro.errors import TransientError
        from repro.serve.retry import RetryPolicy

        service.scheduler.retry = RetryPolicy(max_attempts=2, base_delay=0.001)
        body = _map_body(seed=2)
        pipe = service.scheduler.pipeline_for(parse_request(body))

        def explode(*_a, **_k):
            raise TransientError("injected")

        pipe.run = explode
        status, reply, headers = asyncio.run(service.handle("map", body))
        assert status == 503 and reply["error"] == "transient"
        assert float(headers["Retry-After"]) > 0

    def test_permanent_failure_maps_to_500(self, service):
        from repro.errors import PermanentError

        body = _map_body(seed=2)
        pipe = service.scheduler.pipeline_for(parse_request(body))

        def explode(*_a, **_k):
            raise PermanentError("unrecoverable")

        pipe.run = explode
        status, reply, _ = asyncio.run(service.handle("map", body))
        assert status == 500 and reply["error"] == "permanent"

    def test_allow_degraded_parses_and_flags_response(self, service):
        request = parse_request(_map_body(allow_degraded=True))
        assert request.allow_degraded
        # a healthy group serves the full result: no degraded flag leaks
        status, reply, _ = asyncio.run(
            service.handle("map", _map_body(seed=3, allow_degraded=True))
        )
        assert status == 200 and "degraded" not in reply

    def test_repeat_response_carries_cached_flag(self, service):
        # A replayed identity is answered by the response cache before
        # the breaker is consulted: full fidelity, flagged "cached",
        # never "degraded".
        body = _map_body(seed=6, allow_degraded=True)
        status, first, _ = asyncio.run(service.handle("map", body))
        assert status == 200 and "cached" not in first
        gkey = parse_request(body).group_key()
        breaker = service.scheduler.breaker_for(gkey)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        status, reply, _ = asyncio.run(service.handle("map", body))
        assert status == 200
        assert reply["cached"] is True and "degraded" not in reply
        assert reply["mu"] == first["mu"]

    def test_healthz_exposes_breakers_and_faults(self, service):
        status, reply, _ = asyncio.run(service.handle("healthz", {}))
        assert status == 200
        assert reply["faults_active"] is False
        assert isinstance(reply["breakers"], dict)
