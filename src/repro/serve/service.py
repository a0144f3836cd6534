"""JSON-over-HTTP (and JSON-lines stdio) front end for the pipeline.

One long-lived process serves TIMER's whole chain against a fixed set of
topologies, amortizing labelings, distance matrices and batch dispatch
across requests (the ROADMAP's "heavy traffic" shape).  Everything is
stdlib ``asyncio`` -- no web framework -- because the protocol is five
endpoints and the hot path is the scheduler, not the parser:

- ``POST /map``      -- partition + initial mapping (+ enhance) of one
  application graph; body documented in ``docs/serving.md``.
- ``POST /enhance``  -- run the enhance stage on a supplied mapping.
- ``POST /batch``    -- a list of map/enhance payloads submitted in one
  event-loop tick, so each group's items leave in one dispatch.
- ``GET  /healthz``  -- liveness + queue depth + served topologies.
- ``GET  /metrics``  -- Prometheus text; ``?format=json`` for the JSON
  schema the benchmarks consume.

The stdio mode (``repro serve --stdio``) speaks the same request bodies
as newline-delimited JSON with an ``op`` field, for embedding the
service under a supervisor or over SSH without opening a port.

Every request is validated when it is parsed, before the scheduler
admits it: each op's body must be a JSON object, and every field is
checked, never coerced, so a bad value answers 400 naming the field.
The graph-size limit (``--max-n``) is one of these checks:
:func:`parse_request` refuses any spec whose graph could exceed it, by
:meth:`GraphSpec.max_vertices` (an ``edges`` spec's ``n``; for a
``generate`` spec, the vertices its instance's builder makes), so an
oversized graph is never built, in-process or on a pool worker.  The
standard ``mapping-valid`` hook runs post-run on every served result.
"""

from __future__ import annotations

import asyncio
import json
import reprlib
import sys
import threading
import traceback
from dataclasses import dataclass
from functools import partial
from urllib.parse import parse_qs, urlsplit

import numpy as np

from repro.obs import get_logger
from repro.obs.trace import WIRE_KEY, SpanContext, TraceBuffer, Tracer

from repro.api.pipeline import PipelineConfig
from repro.api.registry import REGISTRY, TOPOLOGY
from repro.core.backend import get_backend, set_default_backend
from repro.core.config import TimerConfig
from repro.errors import (
    CircuitOpenError,
    PermanentError,
    ReproError,
    TransientError,
)
from repro.serve.cache import DEFAULT_RESPONSE_CACHE_BYTES, TopologyCache
from repro.serve.faults import FaultPlan
from repro.serve.metrics import MetricsRegistry
from repro.serve.retry import RetryPolicy
from repro.serve.scheduler import (
    BatchScheduler,
    DeadlineExceededError,
    GraphSpec,
    MapRequest,
    QueueFullError,
    ServedResult,
    wire_float,
    wire_int,
)

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Hard cap on request body bytes (inline edge lists can be large, but a
#: serving process must bound what it buffers per connection).
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Hard cap on accumulated request-header bytes per request; a client
#: streaming endless header lines must hit a 400, not grow the dict.
MAX_HEADER_BYTES = 64 * 1024

#: Largest ``config.nh`` a request may ask for.  A run's enhance time
#: grows linearly in it, so an unbounded value computes until killed;
#: the paper uses at most 50.
MAX_HIERARCHIES = 1000


# ----------------------------------------------------------------------
# Wire parsing
# ----------------------------------------------------------------------
_CONFIG_KEYS = {
    "partition", "initial_mapping", "case", "enhance", "epsilon",
    "seed_policy", "nh", "n_hierarchies", "strategy", "swap_strategy",
    "verify", "report", "backend",
}


def _wire_names(payload: dict, key: str) -> tuple[str, ...]:
    names = payload.get(key, [])
    if isinstance(names, list) and all(isinstance(name, str) for name in names):
        return tuple(names)
    raise ReproError(f"config.{key} must be a list of strings, got {reprlib.repr(names)}")


def _wire_str(payload: dict, *keys: str, default: str) -> str:
    """The first of the alias ``keys`` present in ``payload``, checked to be a string."""
    key = next((k for k in keys if k in payload), keys[0])
    value = payload.get(key, default)
    if isinstance(value, str):
        return value
    raise ReproError(f"config.{key} must be a string, got {reprlib.repr(value)}")


def _require_object(payload) -> None:
    if not isinstance(payload, dict):
        raise ReproError(
            f"request body must be a JSON object, got {reprlib.repr(payload)}"
        )


def _count_param(payload: dict, key: str, default: int) -> int:
    count = wire_int(payload.get(key, default), key)
    if count < 0:
        raise ReproError(f"{key} must be >= 0, got {count}")
    return count


def parse_config(payload: dict) -> PipelineConfig:
    """Wire config dict -> :class:`PipelineConfig` (CLI flag spellings).

    The parsed config always carries the server's post-run verify chain:
    ``mapping-valid`` plus any requested hooks.  Values are checked,
    never coerced.
    """
    if not isinstance(payload, dict):
        raise ReproError(f"config must be an object, got {reprlib.repr(payload)}")
    unknown = sorted(set(payload) - _CONFIG_KEYS)
    if unknown:
        raise ReproError(
            f"unknown config keys {reprlib.repr(unknown)}; known: {sorted(_CONFIG_KEYS)}"
        )
    nh_key = "nh" if "nh" in payload else "n_hierarchies"
    nh = wire_int(payload.get(nh_key, 8), f"config.{nh_key}")
    if not 0 <= nh <= MAX_HIERARCHIES:
        raise ReproError(
            f"config.{nh_key} must be in [0, {MAX_HIERARCHIES}], got {reprlib.repr(nh)}"
        )
    strategy = _wire_str(payload, "strategy", "swap_strategy", default="greedy")
    return PipelineConfig(
        partition=_wire_str(payload, "partition", default="kway"),
        initial_mapping=_wire_str(payload, "initial_mapping", "case", default="c2"),
        enhance=_wire_str(payload, "enhance", default="timer"),
        epsilon=wire_float(payload.get("epsilon", 0.03), "config.epsilon"),
        seed_policy=_wire_str(payload, "seed_policy", default="stream"),
        timer=TimerConfig(n_hierarchies=nh, swap_strategy=strategy),
        post_verify=("mapping-valid",) + _wire_names(payload, "verify"),
        reports=_wire_names(payload, "report"),
        # Note: backend is excluded from PipelineConfig.identity(), so
        # requests differing only in backend still share a batch group
        # and a response-cache cell (the backends are byte-identical).
        backend=_wire_str(payload, "backend", default=""),
    )


def parse_request(
    payload: dict,
    *,
    require_mu: bool = False,
    max_graph_n: int | None = None,
) -> MapRequest:
    """One wire body -> a validated :class:`MapRequest` (raises ReproError).

    ``max_graph_n`` is the server's graph-size limit: a spec whose graph
    could exceed it is refused here, before its graph is ever built.
    """
    _require_object(payload)
    known = {
        "topology", "graph", "config", "seed", "mu", "deadline_s",
        "allow_degraded", "op", "id", "trace",
    }
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ReproError(
            f"unknown request keys {reprlib.repr(unknown)}; known: {sorted(known)}"
        )
    if "topology" not in payload:
        raise ReproError("request needs a 'topology'")
    topology = payload["topology"]
    if not isinstance(topology, str):
        raise ReproError(f"topology must be a string, got {reprlib.repr(topology)}")
    spec = GraphSpec.from_wire(payload.get("graph", {}))
    if max_graph_n is not None and spec.max_vertices() > max_graph_n:
        raise ReproError(
            f"graph spec allows {spec.max_vertices()} vertices; this server "
            f"admits at most {max_graph_n}"
        )
    seed = payload.get("seed")
    if seed is not None:
        seed = wire_int(seed, "seed")
        if seed < 0:
            raise ReproError(f"seed must be >= 0, got {reprlib.repr(seed)}")
    mu = payload.get("mu")
    if require_mu and mu is None:
        raise ReproError("enhance requests need a 'mu' mapping array")
    if mu is not None:
        if not isinstance(mu, (list, tuple)):
            raise ReproError(f"mu must be an array of integers, got {reprlib.repr(mu)}")
        mu = np.asarray(
            [wire_int(x, f"mu[{i}]") for i, x in enumerate(mu)], dtype=np.int64
        )
    deadline_s = payload.get("deadline_s")
    if deadline_s is not None:
        deadline_s = wire_float(deadline_s, "deadline_s", positive=True)
    allow_degraded = payload.get("allow_degraded", False)
    if not isinstance(allow_degraded, bool):
        raise ReproError(f"allow_degraded must be a boolean, got {reprlib.repr(allow_degraded)}")
    return MapRequest(
        topology=topology,
        graph=spec,
        config=parse_config(payload.get("config", {})),
        seed=seed,
        mu=mu,
        deadline_s=deadline_s,
        allow_degraded=allow_degraded,
    )


# ----------------------------------------------------------------------
# The service (transport-independent op handling)
# ----------------------------------------------------------------------
class MappingService:
    """Routes parsed operations through one :class:`BatchScheduler`."""

    def __init__(
        self,
        scheduler: BatchScheduler,
        *,
        max_graph_n: int | None = None,
    ) -> None:
        self.scheduler = scheduler
        self.metrics = scheduler.metrics
        self.tracer = scheduler.tracer
        self.max_graph_n = max_graph_n
        self._m_responses = self.metrics.counter(
            "responses_total", "responses sent, by status code"
        )
        self._log = get_logger("serve.service")

    async def handle(self, op: str, payload: dict) -> tuple[int, dict | str, dict]:
        """Dispatch one operation -> ``(status, body, extra_headers)``."""
        try:
            _require_object(payload)
            if op == "healthz":
                return 200, self._healthz(), {}
            if op == "metrics":
                fmt = payload.get("format", "text")
                if fmt not in ("text", "json"):
                    raise ReproError(
                        f"format must be 'text' or 'json', got {reprlib.repr(fmt)}"
                    )
                extra = self._metrics_extra()
                if fmt == "json":
                    return 200, self.metrics.render_json(extra=extra), {}
                return 200, self.metrics.render_prometheus(extra=extra), {}
            if op in ("map", "enhance"):
                with self._open_request_span(op, payload) as span:
                    request = parse_request(
                        payload,
                        require_mu=(op == "enhance"),
                        max_graph_n=self.max_graph_n,
                    )
                    request.trace = span.context
                    served = await self.scheduler.submit(request)
                    span.set(cached=served.cached, degraded=served.degraded)
                return 200, result_body(served), {}
            if op == "batch":
                return await self._handle_batch(payload)
            if op == "traces":
                snapshot = self.tracer.debug_snapshot(
                    recent=_count_param(payload, "recent", 20),
                    slowest=_count_param(payload, "slowest", 5),
                )
                return 200, snapshot, {}
            return 404, {"ok": False, "error": "not_found",
                         "message": f"unknown operation {reprlib.repr(op)}"}, {}
        except QueueFullError as exc:
            body = {"ok": False, "error": "queue_full", "message": str(exc),
                    "retry_after_s": exc.retry_after}
            return 429, body, {"Retry-After": f"{exc.retry_after:.3f}"}
        except DeadlineExceededError as exc:
            return 504, {"ok": False, "error": "deadline_exceeded",
                         "message": str(exc)}, {}
        except CircuitOpenError as exc:
            body = {"ok": False, "error": "circuit_open", "message": str(exc),
                    "retry_after_s": exc.retry_after}
            return 503, body, {"Retry-After": f"{max(exc.retry_after, 0.001):.3f}"}
        except TransientError as exc:
            # Retries exhausted on a transient fault: the work may well
            # succeed on a fresh request, so shed rather than condemn.
            hint = max(float(getattr(exc, "retry_after", 0.0)), 0.1)
            body = {"ok": False, "error": "transient", "message": str(exc),
                    "retry_after_s": hint}
            return 503, body, {"Retry-After": f"{hint:.3f}"}
        except PermanentError as exc:
            # Service-side verdict (e.g. a poison request isolated by
            # crash bisection): retrying the same work cannot help.
            return 500, {"ok": False, "error": "permanent",
                         "message": str(exc)}, {}
        except (ReproError, ValueError, KeyError, TypeError) as exc:
            return 400, {"ok": False, "error": "bad_request",
                         "message": str(exc)}, {}
        except Exception as exc:  # pragma: no cover - defensive
            self._log.error(
                "unhandled_exception",
                op=op,
                error=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
            )
            return 500, {"ok": False, "error": "internal",
                         "message": f"{type(exc).__name__}: {exc}"}, {}

    def _open_request_span(self, op: str, payload: dict):
        """The server-side root span for one map/enhance request.

        A client-stamped context in ``payload["trace"]`` parents this
        span under the client's own span (one cross-process tree);
        otherwise the trace id derives from the payload's canonical JSON
        -- the request's run identity, so replays share a trace id.  A
        client hint ``{"trace": {"sample": false}}`` opts the request
        out of trace retention (the loadgen ``--trace-sample`` knob).
        """
        raw = payload.get(WIRE_KEY)
        ctx = SpanContext.from_wire(raw)
        if ctx is None:
            sampled = True
            if isinstance(raw, dict):
                sampled = bool(raw.get("sample", True))
            base = {k: v for k, v in payload.items() if k != WIRE_KEY}
            ctx = self.tracer.start_trace(base, sampled=sampled)
        return self.tracer.span("handle", ctx, op=op)

    async def _handle_batch(self, payload: dict) -> tuple[int, dict, dict]:
        requests = payload.get("requests")
        if not isinstance(requests, list) or not requests:
            raise ReproError("batch body needs a non-empty 'requests' list")
        if not all(isinstance(item, dict) for item in requests):
            # Rejected before anything is submitted: one malformed item
            # must not waste its siblings' computation.
            raise ReproError("every 'requests' entry must be a JSON object")
        # Submitted in one tick, so each group's items leave together.
        outcomes = await asyncio.gather(
            *(
                self.handle(str(item.get("op", "map")), item)
                for item in requests
            ),
        )
        results = []
        for (status, body, _headers), item in zip(outcomes, requests):
            if isinstance(body, dict) and "id" in item:
                body = {**body, "id": item["id"]}
            # "status_code", like the stdio wrapper: a healthz body's own
            # "status": "ok" must not shadow the integer code.
            results.append(
                {"status_code": status, **(body if isinstance(body, dict)
                                           else {"body": body})}
            )
        return 200, {"ok": True, "results": results}, {}

    def _healthz(self) -> dict:
        body = {
            "status": "ok",
            "uptime_seconds": self.metrics.uptime_seconds,
            "pending": self.scheduler.pending,
            "topologies": list(REGISTRY.names(TOPOLOGY)),
            "cache": self.scheduler.cache.stats(),
            "breakers": self.scheduler.breaker_snapshot(),
            "faults_active": self.scheduler.faults.active,
            "kernel_backend": get_backend(),
        }
        if self.scheduler.pool is not None:
            body["pool"] = self.scheduler.pool.stats()
        return body

    def _metrics_extra(self) -> dict:
        stats = self.scheduler.cache.stats()
        trace_stats = self.tracer.buffer.stats()
        return {
            "cache_sessions_size": stats["sessions"]["size"],
            "cache_sessions_hits": stats["sessions"]["hits"],
            "cache_sessions_misses": stats["sessions"]["misses"],
            "cache_sessions_evictions": stats["sessions"]["evictions"],
            "cache_disk_hits": stats["disk"]["hits"],
            "cache_disk_misses": stats["disk"]["misses"],
            "cache_disk_stores": stats["disk"]["stores"],
            "cache_disk_corrupt": stats["disk"]["corrupt"],
            "labelings_computed": stats["labelings_computed"],
            "kernel_backend": get_backend(),
            "trace_buffer_traces": trace_stats["traces"],
            "trace_buffer_spans": trace_stats["spans"],
            "trace_buffer_dropped_spans": trace_stats["dropped_spans"],
        }

    def record_response(self, status: int) -> None:
        self._m_responses.inc(label=str(status))


def result_body(served: ServedResult) -> dict:
    """The documented response body of a successful map/enhance."""
    res = served.result
    body = {
        "ok": True,
        "graph": res.graph,
        "topology": res.topology,
        "seed": res.seed,
        "mu": [int(x) for x in res.mu_final],
        "metrics": res.metrics,
        "reports": res.reports,
        "identity_hash": res.identity_hash,
        "batch": {
            "size": served.batch_size,
            "unique": served.batch_unique,
            "coalesced": served.coalesced,
            "queue_seconds": served.queue_seconds,
            "compute_seconds": served.compute_seconds,
        },
    }
    if served.degraded:
        # Flagged so clients never mistake a degraded answer for the
        # byte-identity-contracted full result.
        body["degraded"] = True
        body["degraded_mode"] = served.degraded_mode
    if served.cached:
        # Informational only: a response-cache hit is full fidelity
        # (byte-identical to a recompute by the determinism contract).
        body["cached"] = True
    if served.trace_id:
        # The handle to this request's span tree in /debug/traces.
        body["trace_id"] = served.trace_id
    return body


# ----------------------------------------------------------------------
# HTTP transport
# ----------------------------------------------------------------------
_ROUTES = {
    ("POST", "/map"): "map",
    ("POST", "/enhance"): "enhance",
    ("POST", "/batch"): "batch",
    ("GET", "/healthz"): "healthz",
    ("GET", "/metrics"): "metrics",
    ("GET", "/debug/traces"): "traces",
}


async def _read_http_request(reader: asyncio.StreamReader):
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
    line = await reader.readline()
    if not line:
        return None
    try:
        method, target, _version = line.decode("latin-1").split()
    except ValueError:
        raise ReproError(f"malformed request line {line!r}") from None
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise ReproError(f"request headers exceed {MAX_HEADER_BYTES} bytes")
        key, _, value = raw.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", 0))
    if length > MAX_BODY_BYTES:
        raise ReproError(f"request body of {length} bytes exceeds the limit")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), target, headers, body


def _http_response(
    status: int, body: dict | str, extra_headers: dict | None = None
) -> bytes:
    if isinstance(body, str):
        payload = body.encode("utf-8")
        ctype = "text/plain; version=0.0.4; charset=utf-8"
    else:
        payload = (json.dumps(body) + "\n").encode("utf-8")
        ctype = "application/json"
    head = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}"]
    head.append(f"Content-Type: {ctype}")
    head.append(f"Content-Length: {len(payload)}")
    for key, value in (extra_headers or {}).items():
        head.append(f"{key}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + payload


def _query_params(query: str) -> dict:
    """A URL query -> its parameters, decimal digits read as the integer they spell."""
    params = {}
    for key, values in parse_qs(query).items():
        value = values[0]
        if value.isascii() and value.isdigit():
            try:
                value = int(value)
            except ValueError:  # past int()'s digit limit: refused as a string
                pass
        params[key] = value
    return params


async def handle_http_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    service: MappingService,
) -> None:
    """Keep-alive request loop for one client connection."""
    try:
        while True:
            try:
                parsed = await _read_http_request(reader)
            except (ReproError, asyncio.IncompleteReadError, ValueError):
                writer.write(_http_response(
                    400, {"ok": False, "error": "bad_request",
                          "message": "malformed HTTP request"}))
                break
            if parsed is None:
                break
            method, target, headers, raw_body = parsed
            url = urlsplit(target)
            op = _ROUTES.get((method, url.path))
            if op is None:
                known_path = any(p == url.path for (_m, p) in _ROUTES)
                status, body, extra = (405 if known_path else 404), {
                    "ok": False,
                    "error": "method_not_allowed" if known_path else "not_found",
                    "message": f"no route for {method} {url.path}",
                }, {}
            else:
                try:
                    payload = json.loads(raw_body) if raw_body else {}
                except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or too deep
                    payload, op = None, None
                    status, body, extra = 400, {
                        "ok": False, "error": "bad_request",
                        "message": f"invalid JSON body: {exc}"}, {}
                if op is not None:
                    query = _query_params(url.query)
                    if op in ("metrics", "traces") and query and isinstance(payload, dict):
                        payload = {**payload, **query}
                    status, body, extra = await service.handle(op, payload)
            service.record_response(status)
            writer.write(_http_response(status, body, extra))
            await writer.drain()
            if headers.get("connection", "keep-alive").lower() == "close":
                break
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover
            pass


# ----------------------------------------------------------------------
# stdio transport (JSON lines)
# ----------------------------------------------------------------------
async def _drain_oversized_line(reader: asyncio.StreamReader) -> bool:
    """Discard buffered input through the next newline; True on EOF."""
    while True:
        try:
            await reader.readuntil(b"\n")
            return False
        except asyncio.LimitOverrunError as exc:
            await reader.read(max(int(exc.consumed), 1))
        except (asyncio.IncompleteReadError, ValueError):
            return True


async def serve_stdio(
    service: MappingService,
    reader: asyncio.StreamReader,
    write_line,
) -> None:
    """One JSON request per input line, one JSON response line each.

    Requests carry ``{"op": "map" | "enhance" | "batch" | "healthz" |
    "metrics", "id": <echoed>, ...body}``; ``op`` defaults to ``map``.
    Requests are **pipelined**: each valid line is dispatched as its own
    task and its response line is written as soon as the handler
    finishes, so many map lines sent back-to-back share one dispatch
    exactly like concurrent HTTP posts.  Responses may therefore
    return out of submission order -- embedders sending more than one
    in-flight request must tag each line with an ``id`` and match
    responses by the echoed ``id``, not by position.

    A malformed or oversized line answers with a structured error and
    the loop continues -- one bad request must never terminate the
    session (the embedder would lose every request behind it).
    """
    tasks: set[asyncio.Task] = set()

    async def dispatch(payload: dict) -> None:
        op = str(payload.get("op", "map"))
        status, body, _headers = await service.handle(op, payload)
        if isinstance(body, str):
            body = {"ok": status == 200, "text": body}
        if "id" in payload:
            body = {**body, "id": payload["id"]}
        service.record_response(status)
        # "status_code", not "status": healthz bodies carry their own
        # "status": "ok" field which must survive the wrapping.
        write_line(json.dumps({"status_code": status, **body}))

    def submit(payload: dict) -> None:
        task = asyncio.ensure_future(dispatch(payload))
        tasks.add(task)
        task.add_done_callback(tasks.discard)

    try:
        while True:
            try:
                # readuntil, not readline: readline's overrun handling
                # clears the whole buffer, which would also discard
                # healthy requests already queued behind the oversized
                # line.
                raw = await reader.readuntil(b"\n")
            except asyncio.IncompleteReadError as exc:
                raw = exc.partial  # final line without a terminator
            except (asyncio.LimitOverrunError, ValueError):
                # Line exceeds the reader's buffer limit: discard
                # through the next newline so the stream resynchronizes,
                # then answer with a structured error instead of dying.
                eof = await _drain_oversized_line(reader)
                write_line(json.dumps({
                    "ok": False, "error": "bad_request",
                    "message": "request line exceeds the size limit",
                }))
                if eof:
                    return
                continue
            if not raw:
                return
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except (ValueError, RecursionError) as exc:  # bad JSON, or nested too deep
                write_line(json.dumps({"ok": False, "error": "bad_request",
                                       "message": f"invalid JSON: {exc}"}))
                continue
            if not isinstance(payload, dict):
                write_line(json.dumps({"ok": False, "error": "bad_request",
                                       "message": "request line must be a "
                                       "JSON object"}))
                continue
            submit(payload)
    finally:
        # EOF: finish what was admitted (responses the embedder is
        # still owed) before returning control to the caller.
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
@dataclass
class ServeSettings:
    """Everything ``repro serve`` configures (defaults match the CLI)."""

    host: str = "127.0.0.1"
    port: int = 8080
    max_batch: int = 16
    max_queue: int = 256
    #: > 0 moves batch compute onto the supervised crash-tolerant pool;
    #: 0 computes in-process, one request at a time
    workers: int = 0
    max_sessions: int | None = None
    #: bound on memoized per-group :class:`Pipeline` objects; pipelines
    #: pin their topology session, so shrinking this (with
    #: ``max_sessions``) is what actually caps labeling residency
    max_pipelines: int = 64
    labeling_cache: str | None = None
    max_graph_n: int | None = None
    warm: tuple[str, ...] = ()
    stdio: bool = False
    retry_attempts: int = 3
    retry_base_ms: float = 50.0
    breaker_threshold: int = 5
    breaker_reset_s: float = 10.0
    #: JSON fault plan (see :class:`repro.serve.faults.FaultPlan`);
    #: ``None`` falls back to the ``REPRO_FAULTS`` environment variable
    faults: str | None = None
    response_cache: int = 128
    #: byte budget of the run-identity response cache (0 disables it)
    response_cache_bytes: int = DEFAULT_RESPONSE_CACHE_BYTES
    #: process-default kernel backend ("" = auto); per-request configs
    #: can still name their own (``config.backend`` on the wire)
    backend: str = ""
    #: end-to-end tracing (deterministic span trees in /debug/traces);
    #: cheap enough to default on -- the bench gates overhead at <= 2%
    trace: bool = True
    #: trace ring-buffer bound (traces this service retains)
    trace_buffer: int = 256
    #: attach cProfile top-K hotspot frames to every compute span
    profile: bool = False


def build_service(settings: ServeSettings) -> MappingService:
    if settings.backend:
        # Validates the name up front (bad --backend fails at boot, not
        # on the first request) and becomes the process-wide default.
        set_default_backend(settings.backend)
    cache = TopologyCache(
        max_sessions=settings.max_sessions, disk_dir=settings.labeling_cache
    )
    if settings.warm:
        cache.warm(settings.warm)
    tracer = Tracer(
        process="serve",
        buffer=TraceBuffer(max_traces=settings.trace_buffer),
        enabled=settings.trace,
    )
    scheduler = BatchScheduler(
        max_batch=settings.max_batch,
        max_queue=settings.max_queue,
        max_pipelines=settings.max_pipelines,
        workers=settings.workers,
        cache=cache,
        metrics=MetricsRegistry(),
        retry=RetryPolicy(
            max_attempts=settings.retry_attempts,
            base_delay=settings.retry_base_ms / 1000.0,
        ),
        breaker_threshold=settings.breaker_threshold,
        breaker_reset_s=settings.breaker_reset_s,
        faults=FaultPlan.from_json(settings.faults) if settings.faults else None,
        response_cache_size=settings.response_cache,
        response_cache_bytes=settings.response_cache_bytes,
        tracer=tracer,
        profile=settings.profile,
    )
    return MappingService(scheduler, max_graph_n=settings.max_graph_n)


async def _amain(settings: ServeSettings) -> int:
    service = build_service(settings)
    try:
        if settings.stdio:
            loop = asyncio.get_running_loop()
            # Same per-request size cap as the HTTP transport; overlong
            # lines get a structured error (see serve_stdio), so the
            # limit bounds buffering without killing the session.
            reader = asyncio.StreamReader(limit=MAX_BODY_BYTES)
            await loop.connect_read_pipe(
                lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
            )

            def write_line(text: str) -> None:
                sys.stdout.write(text + "\n")
                sys.stdout.flush()

            get_logger("serve").info("serve_started", mode="stdio")
            await serve_stdio(service, reader, write_line)
            return 0
        server = await asyncio.start_server(
            partial(handle_http_connection, service=service),
            settings.host,
            settings.port,
        )
        bound = server.sockets[0].getsockname()
        get_logger("serve").info(
            "serve_listening",
            url=f"http://{bound[0]}:{bound[1]}",
            max_batch=settings.max_batch,
            max_queue=settings.max_queue,
            workers=settings.workers,
        )
        async with server:
            await server.serve_forever()
        return 0
    finally:
        service.scheduler.close()


def run_server(settings: ServeSettings) -> int:
    """Blocking entry point used by ``python -m repro serve``."""
    try:
        return asyncio.run(_amain(settings))
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


class ServerThread:
    """An in-process HTTP server on an ephemeral port (tests, benches).

    Context manager: ``with ServerThread(settings) as srv:`` exposes
    ``srv.host`` / ``srv.port`` / ``srv.url`` while a private event loop
    runs the service in a daemon thread; exit stops the loop and closes
    the scheduler.
    """

    def __init__(self, settings: ServeSettings | None = None) -> None:
        self.settings = settings or ServeSettings(port=0)
        self.host = self.settings.host
        self.port: int | None = None
        self.service: MappingService | None = None
        self._ready = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._startup_error: BaseException | None = None

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self._stop = asyncio.Event()
            try:
                self.service = build_service(self.settings)
                server = await asyncio.start_server(
                    partial(handle_http_connection, service=self.service),
                    self.settings.host,
                    self.settings.port,
                )
            except BaseException as exc:
                self._startup_error = exc
                self._ready.set()
                raise
            self.port = server.sockets[0].getsockname()[1]
            self._ready.set()
            try:
                async with server:
                    await self._stop.wait()
            finally:
                self.service.scheduler.close()

        asyncio.run(main())

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ReproError("server thread failed to start in 30s")
        if self._startup_error is not None:
            raise ReproError(
                f"server thread failed to start: {self._startup_error}"
            )
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)
