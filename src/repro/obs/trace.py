"""Deterministic spans, tracers, and the trace ring buffer each tracer owns.

A *span* is one timed operation: name, trace id, span id, parent span
id, a process role tag, monotonic-clock duration, and free-form
attributes.  A *trace* is the set of spans sharing a trace id; the
parent links make it a tree that can cross process boundaries.

Two properties are deliberate and load-bearing:

**Deterministic ids.**  The trace id is derived from the request's run
identity (the canonical JSON of the request payload -- the same bytes
that key the response cache), and every span id is
``sha256(trace_id / parent_id / name / index)`` where ``index`` counts
prior same-named siblings.  Replaying the same request therefore
reproduces the same span tree byte for byte (see
:func:`tree_signature`), which is what makes traces diffable across
runs and lets the e2e tests pin the tree shape.  Nothing about a span
id depends on wall-clock, pids, or scheduling order of *other*
requests.

**Monotonic durations.**  Spans time themselves with
:func:`time.perf_counter`; wall-clock never enters the span model, so
tracing stays legal inside the determinism-linted trees (DET002) and
span *structure* stays reproducible while durations honestly vary.

Contexts cross process boundaries as plain dicts
(:meth:`SpanContext.to_wire`): a client may stamp one into a request
payload, the scheduler threads one through the pool's pipe items, and
pool workers ship their finished spans back alongside results, so the
serving process's buffer holds every request's whole tree.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

#: wire-format key under which a trace context rides in a request payload
WIRE_KEY = "trace"

_ID_HEX = 16  # 64-bit hex ids, plenty for per-deployment uniqueness


def _canonical_json(payload: object) -> bytes:
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=str
    ).encode("utf-8")


def derive_trace_id(payload: object) -> str:
    """Deterministic trace id from a JSON-serializable request payload.

    The payload is canonicalized (sorted keys, no whitespace) before
    hashing, so semantically identical requests -- including the same
    request replayed in a fresh process -- share a trace id.
    """
    digest = hashlib.sha256(b"repro-trace:" + _canonical_json(payload))
    return digest.hexdigest()[:_ID_HEX]


def derive_span_id(
    trace_id: str, parent_id: str, name: str, index: int
) -> str:
    """Deterministic span id: position in the tree, nothing else."""
    blob = f"{trace_id}/{parent_id}/{name}/{index}".encode()
    return hashlib.sha256(blob).hexdigest()[:_ID_HEX]


@dataclass(frozen=True)
class SpanContext:
    """The portable part of a span: enough to parent a child anywhere."""

    trace_id: str
    span_id: str = ""
    sampled: bool = True

    def to_wire(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "sampled": bool(self.sampled),
        }

    @classmethod
    def from_wire(cls, data: object) -> "SpanContext | None":
        """Parse a wire dict; ``None`` on anything malformed (never raise:
        a bad trace header must not fail the request it rides on)."""
        if not isinstance(data, dict):
            return None
        trace_id = data.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        span_id = data.get("span_id")
        return cls(
            trace_id=trace_id,
            span_id=span_id if isinstance(span_id, str) else "",
            sampled=bool(data.get("sampled", True)),
        )


class Span:
    """One timed operation; use as a context manager.

    Finishing (normally or via ``__exit__``) stamps the duration and
    records the span into the tracer's buffer.  Exceptions mark the
    span ``status="error"`` and propagate.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "process",
        "attrs",
        "start",
        "duration",
        "status",
        "_tracer",
        "_done",
    )

    def __init__(
        self,
        tracer: "Tracer | None",
        name: str,
        trace_id: str,
        parent_id: str,
        span_id: str,
        process: str,
        attrs: dict | None = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.process = process
        self.attrs = dict(attrs) if attrs else {}
        self.start = time.perf_counter()
        self.duration = 0.0
        self.status = "ok"
        self._tracer = tracer
        self._done = False

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id, True)

    def set(self, **attrs: object) -> None:
        self.attrs.update(attrs)

    def finish(
        self, status: str | None = None, duration: float | None = None
    ) -> None:
        """Record the span; ``duration`` overrides the self-measured
        wall time (used when converting pre-measured stage timings)."""
        if self._done:
            return
        self._done = True
        self.duration = (
            time.perf_counter() - self.start
            if duration is None
            else float(duration)
        )
        if status is not None:
            self.status = status
        if self._tracer is not None:
            self._tracer._record(self)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "process": self.process,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
            self.finish(status="error")
        else:
            self.finish()


class _NullSpan:
    """No-op span returned when tracing is disabled or unsampled.

    Forwards the *parent* context so child spans created under it stay
    unrecorded too, without callers branching on enablement.
    """

    __slots__ = ("context",)

    def __init__(self, context: SpanContext) -> None:
        self.context = context

    def set(self, **attrs: object) -> None:
        pass

    def finish(
        self, status: str | None = None, duration: float | None = None
    ) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_CONTEXT = SpanContext(trace_id="", span_id="", sampled=False)


class TraceBuffer:
    """Bounded ring of finished spans, grouped by trace.

    Traces evict least-recently-touched once ``max_traces`` is
    exceeded; within a trace, spans past ``max_spans_per_trace`` are
    counted in ``dropped`` instead of stored, so one pathological
    request cannot monopolize the buffer.  All methods are thread-safe
    (spans finish on executor threads and the supervisor thread).
    """

    def __init__(
        self, max_traces: int = 256, max_spans_per_trace: int = 512
    ) -> None:
        self.max_traces = int(max_traces)
        self.max_spans_per_trace = int(max_spans_per_trace)
        self._lock = threading.Lock()
        self._traces: OrderedDict[str, list[dict]] = OrderedDict()
        self._indices: dict[str, dict[tuple[str, str], int]] = {}
        self.dropped_spans = 0
        self.evicted_traces = 0

    def next_index(self, trace_id: str, parent_id: str, name: str) -> int:
        """Count of prior same-named siblings -- the deterministic
        disambiguator in :func:`derive_span_id`."""
        with self._lock:
            counters = self._indices.setdefault(trace_id, {})
            key = (parent_id, name)
            index = counters.get(key, 0)
            counters[key] = index + 1
            return index

    def add(self, span: dict) -> None:
        trace_id = span.get("trace_id", "")
        if not trace_id:
            return
        with self._lock:
            spans = self._traces.get(trace_id)
            if spans is None:
                spans = self._traces[trace_id] = []
            else:
                self._traces.move_to_end(trace_id)
            if len(spans) >= self.max_spans_per_trace:
                self.dropped_spans += 1
            else:
                spans.append(dict(span))
            while len(self._traces) > self.max_traces:
                victim, _ = self._traces.popitem(last=False)
                self._indices.pop(victim, None)
                self.evicted_traces += 1

    def ingest(self, spans: list[dict]) -> None:
        """Merge spans finished in another process (pool workers)."""
        for span in spans:
            if isinstance(span, dict):
                self.add(span)

    def traces(self) -> list[tuple[str, list[dict]]]:
        """(trace_id, spans) pairs, most recently touched first."""
        with self._lock:
            return [
                (tid, list(spans))
                for tid, spans in reversed(self._traces.items())
            ]

    def get(self, trace_id: str) -> list[dict]:
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()
            self._indices.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "traces": len(self._traces),
                "spans": sum(len(s) for s in self._traces.values()),
                "max_traces": self.max_traces,
                "max_spans_per_trace": self.max_spans_per_trace,
                "dropped_spans": self.dropped_spans,
                "evicted_traces": self.evicted_traces,
            }


class Tracer:
    """Span factory bound to one :class:`TraceBuffer`.

    Each owner builds its own: a serve scheduler's tracer belongs to
    that scheduler, so two services in one process never share a
    buffer or a switch.  ``process`` tags every span with the process's
    role in the request path (``serve`` / ``pool`` / ``runner`` / ...) --
    a deterministic label, unlike a pid.
    """

    def __init__(
        self,
        process: str = "repro",
        buffer: TraceBuffer | None = None,
        enabled: bool = True,
    ) -> None:
        self.process = process
        self.buffer = buffer if buffer is not None else TraceBuffer()
        self.enabled = bool(enabled)

    def start_trace(
        self, payload: object, sampled: bool = True
    ) -> SpanContext:
        """Root context for a request: trace id from the payload's
        canonical JSON, no parent span yet."""
        if not self.enabled or not sampled:
            return _NULL_CONTEXT
        return SpanContext(derive_trace_id(payload), "", True)

    def span(
        self,
        name: str,
        parent: SpanContext | None,
        **attrs: object,
    ):
        """Open a child span under ``parent`` (a no-op span when tracing
        is off, the parent is missing, or the trace is unsampled)."""
        if (
            not self.enabled
            or parent is None
            or not parent.sampled
            or not parent.trace_id
        ):
            return _NullSpan(parent if parent is not None else _NULL_CONTEXT)
        index = self.buffer.next_index(parent.trace_id, parent.span_id, name)
        span_id = derive_span_id(parent.trace_id, parent.span_id, name, index)
        return Span(
            self,
            name,
            parent.trace_id,
            parent.span_id,
            span_id,
            self.process,
            attrs,
        )

    def _record(self, span: Span) -> None:
        self.buffer.add(span.to_dict())

    # -- exposure ------------------------------------------------------
    def debug_snapshot(self, recent: int = 20, slowest: int = 5) -> dict:
        """The ``/debug/traces`` body: recent traces plus slowest-N
        exemplars, each as flat spans + a nested tree."""
        entries = []
        for trace_id, spans in self.buffer.traces():
            entries.append(_trace_entry(trace_id, spans))
        by_duration = sorted(
            entries, key=lambda e: e["duration"], reverse=True
        )
        return {
            "process": self.process,
            "buffer": self.buffer.stats(),
            "recent": entries[: max(0, int(recent))],
            "slowest": by_duration[: max(0, int(slowest))],
        }


def _trace_entry(trace_id: str, spans: list[dict]) -> dict:
    duration = max((s.get("duration", 0.0) for s in _roots(spans)), default=0.0)
    return {
        "trace_id": trace_id,
        "span_count": len(spans),
        "duration": duration,
        "spans": spans,
        "tree": build_tree(spans),
    }


def _roots(spans: list[dict]) -> list[dict]:
    ids = {s.get("span_id") for s in spans}
    return [s for s in spans if s.get("parent_id", "") not in ids]


def build_tree(spans: list[dict]) -> list[dict]:
    """Nest spans by parent link; returns the list of root nodes.

    Spans whose parent is absent from ``spans`` (e.g. a client-stamped
    parent that lives in the client's process) surface as roots,
    so a partial trace still renders instead of vanishing.  Children
    sort by (name, span_id) -- a deterministic order that does not
    depend on cross-process clock alignment.
    """
    nodes = {
        s["span_id"]: {**s, "children": []}
        for s in spans
        if s.get("span_id")
    }
    roots = []
    for span in spans:
        node = nodes.get(span.get("span_id", ""))
        if node is None:
            continue
        parent = nodes.get(span.get("parent_id", ""))
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda n: (n["name"], n["span_id"]))
    roots.sort(key=lambda n: (n["name"], n["span_id"]))
    return roots


def tree_signature(spans: list[dict]) -> bytes:
    """Canonical bytes of a trace's *structure*: names, ids, parent
    links, process roles -- everything deterministic, nothing timed.

    Two runs of the same request must produce byte-identical
    signatures (the determinism contract the e2e tests enforce);
    durations, start offsets, attrs and buffer ordering are excluded
    because they legitimately vary.
    """

    def strip(node: dict) -> dict:
        return {
            "name": node["name"],
            "span_id": node["span_id"],
            "parent_id": node.get("parent_id", ""),
            "process": node.get("process", ""),
            "status": node.get("status", "ok"),
            "children": [strip(c) for c in node["children"]],
        }

    forest = [strip(root) for root in build_tree(spans)]
    return _canonical_json(forest)

