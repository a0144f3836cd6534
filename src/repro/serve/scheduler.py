"""Micro-batching scheduler: group, coalesce, dispatch, bound, recover.

The serving front end (:mod:`repro.serve.service`) turns every wire
request into a :class:`MapRequest` and awaits
:meth:`BatchScheduler.submit`.  Requests wait in groups keyed by
``(topology, pipeline-config identity)``, and a group leaves as one
dispatch on its cached :class:`repro.api.Pipeline` -- one labeling, one
distance matrix and one executor hop per batch instead of per request.

Compute slots, not timers, drive dispatch.  A slot is one executor
thread; there are ``max(1, workers)`` of them.  A request that arrives
while a slot is free leaves on the next event-loop tick, with whatever
else that tick admitted.  Requests that arrive while every slot is busy
wait in their groups and leave together when a slot frees: each free
slot takes the group that has waited longest, up to ``max_batch`` of its
jobs, and a group with jobs left over goes to the back of the queue.  So
batching happens exactly while compute is busy, which is when it pays.

Inside a batch, requests with identical work identity -- same graph
spec, same seed, same supplied mapping -- are **coalesced**: computed
once, answered many times.  This is sound *because* of the determinism
contract (same request == same mapping, test-asserted), and it is where
most of the batching throughput win comes from on hot keys.

*Across* batches the same contract powers the response cache: every
successful full-fidelity result is remembered in a byte-budgeted LRU
(:class:`~repro.serve.cache.ResponseCache`) keyed by the run identity
``(group key, graph content, seed, mu tag)``, and ``submit`` checks it
*before* admission control -- a repeat request is answered instantly,
byte-identical to a fresh compute, without occupying a queue slot or a
batch.  Degraded (enhance-stripped) results are remembered under their
rewritten group key, so they can never impersonate a full result.

Admission control is a single bound on in-flight requests
(``max_queue``): past it, ``submit`` fails fast with
:class:`QueueFullError` carrying a retry-after hint, which the HTTP
layer maps to a 429.  Every request may carry a deadline.  It counts
down while the request waits for a slot: a request that expires before
it leaves its group fails without being computed, and one whose deadline
passes *during* its batch's computation fails on completion (the work is
wasted, the client already walked away).

Fault tolerance
---------------
With ``workers > 0`` batches execute on a :class:`SupervisedPool`: a
worker death restarts the worker and requeues (then bisects) the lost
batch, so at most one poison item fails while its batch-mates succeed.
Per-item :class:`~repro.errors.TransientError` failures are retried
under a :class:`~repro.serve.retry.RetryPolicy` (bounded attempts,
exponential backoff, jitter derived deterministically from the work
key).  A per-group :class:`~repro.serve.retry.CircuitBreaker` sheds
load with 503/``Retry-After`` while a group keeps failing, and
requests marked ``allow_degraded`` may instead be rerouted to an
enhance-free pipeline -- always flagged ``degraded`` so the
byte-identity contract is only claimed for full-fidelity responses.

Determinism: every request becomes one ``Pipeline.run(graph, mu=...,
seed=...)`` call, in-process or on a pool worker -- the same call a
direct library user makes.  Batched, coalesced, retried, in-process or
pool-dispatched: byte-identical mappings on every non-degraded path.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import reprlib
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from repro.api.identity import array_fingerprint, canonical_json, cell_key
from repro.api.pipeline import Pipeline, PipelineConfig, PipelineResult
from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    PermanentError,
    ReproError,
    TransientError,
)
from repro.experiments.instances import (
    generate_instance,
    get_instance,
    instance_names,
    max_vertices,
)
from repro.graphs.builder import from_edges
from repro.graphs.graph import _EXACT_LIMIT, Graph
from repro.obs import profile_call
from repro.obs.trace import SpanContext, TraceBuffer, Tracer
from repro.serve.cache import (
    DEFAULT_RESPONSE_CACHE_BYTES,
    ResponseCache,
    TopologyCache,
)
from repro.serve.faults import FaultClock, FaultPlan, on_item, on_task
from repro.serve.metrics import MetricsRegistry
from repro.serve.pool import SupervisedPool, pinned_worker
from repro.serve.retry import CircuitBreaker, RetryPolicy

#: hotspot frames ``profile=True`` attaches to each compute span
PROFILE_TOP = 10


class QueueFullError(TransientError):
    """Admission control rejected the request (HTTP 429)."""

    def __init__(self, pending: int, max_queue: int, retry_after: float) -> None:
        super().__init__(
            f"queue full: {pending} requests in flight (limit {max_queue})"
        )
        self.retry_after = retry_after


class DeadlineExceededError(ReproError):
    """The request's deadline passed before a result could be returned."""


# ----------------------------------------------------------------------
# Request model
# ----------------------------------------------------------------------
def wire_int(value, field: str) -> int:
    """An integer taken off the wire: an int, or a float with no fraction.

    A bool, a string or a fractional float raises ``ConfigurationError``
    naming ``field`` -- ``int()`` would silently truncate or coerce it.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise ConfigurationError(f"{field} must be an integer, got {reprlib.repr(value)}")


def wire_float(value, field: str, *, positive: bool = False) -> float:
    """A real number taken off the wire: finite, and >= 0 (> 0 if ``positive``).

    A bool, a string, ``null``, a NaN, an infinity or a number out of
    range raises ``ConfigurationError`` naming ``field``.
    """
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    ):
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if math.isfinite(number) and (number > 0 if positive else number >= 0):
            return number
    bound = "> 0" if positive else ">= 0"
    raise ConfigurationError(f"{field} must be a finite number {bound}, got {reprlib.repr(value)}")


@dataclass(frozen=True)
class GraphSpec:
    """Deterministic description of an application graph.

    Two kinds travel on the wire:

    - ``generate``: a Table-1 synthetic instance by name, regenerated
      from ``(instance, seed, sizing)`` -- compact and fully
      reproducible, the load generator's format;
    - ``edges``: an inline ``n`` + weighted edge list for callers
      mapping their own graphs.

    ``cache_key()`` is the content identity coalescing works on.
    """

    kind: str = "generate"
    instance: str = "p2p-Gnutella"
    seed: int = 0
    divisor: int = 1024
    n_min: int = 128
    n_max: int = 192
    n: int | None = None
    edges: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("generate", "edges"):
            raise ConfigurationError(
                "graph spec kind must be 'generate' or 'edges', "
                f"got {reprlib.repr(self.kind)}"
            )
        if self.kind == "generate" and self.instance not in instance_names():
            raise ConfigurationError(
                f"unknown instance {reprlib.repr(self.instance)}; known: "
                f"{', '.join(instance_names())}"
            )
        # The sizing fields reach scaled_n, which divides by the divisor
        # and clips to [n_min, n_max]; normalized so the cache key is too.
        for name in ("seed", "divisor", "n_min", "n_max"):
            object.__setattr__(self, name, wire_int(getattr(self, name), f"graph {name}"))
        if self.seed < 0:
            raise ConfigurationError(f"graph seed must be >= 0, got {reprlib.repr(self.seed)}")
        if self.divisor < 1:
            raise ConfigurationError(f"divisor must be >= 1, got {self.divisor}")
        if self.n_min < 1:
            raise ConfigurationError(f"n_min must be >= 1, got {self.n_min}")
        if self.n_max < self.n_min:
            raise ConfigurationError(
                f"n_max must be >= n_min ({self.n_min}), got {self.n_max}"
            )
        if self.kind == "generate":
            limit = get_instance(self.instance).vertex_limit
            if limit is not None and self.max_vertices() > limit:
                raise ConfigurationError(
                    f"graph n_max: {self.instance} builds at most {limit} "
                    f"vertices, this sizing asks for {self.max_vertices()}"
                )
        if self.kind == "edges" and self.n is None:
            raise ConfigurationError("inline graph spec needs a vertex count 'n'")
        if self.n is not None:
            object.__setattr__(self, "n", wire_int(self.n, "graph n"))
            if self.n < 0:
                raise ConfigurationError(f"graph n must be >= 0, got {self.n}")
        total = 0.0
        for i, edge in enumerate(self.edges):
            if not isinstance(edge, (list, tuple)) or len(edge) not in (2, 3):
                raise ConfigurationError(
                    f"graph edge {i} must be [u, v] or [u, v, weight], "
                    f"got {reprlib.repr(edge)}"
                )
            for endpoint in edge[:2]:
                wire_int(endpoint, f"graph edge {i} endpoint")
            total += wire_float(edge[2], f"graph edge {i} weight") if len(edge) == 3 else 1.0
        # The CSR holds every edge twice; from 2**53 on its weight sums
        # are no longer exact (exact_weights) and overflow on the way to
        # the metrics.
        if 2 * total >= _EXACT_LIMIT:
            raise ConfigurationError(
                "graph edges: the weights, each edge counted twice, must sum "
                f"below 2**53, got {2 * total!r}"
            )

    def build(self) -> Graph:
        if self.kind == "generate":
            return generate_instance(
                self.instance,
                seed=self.seed,
                divisor=self.divisor,
                n_min=self.n_min,
                n_max=self.n_max,
            )
        return from_edges(
            self.n, [tuple(e) for e in self.edges], name=f"inline{self.n}"
        )

    def max_vertices(self) -> int:
        """The most vertices :meth:`build` can return, known without building."""
        if self.kind == "generate":
            return max_vertices(self.instance, self.divisor, self.n_min, self.n_max)
        return self.n

    def cache_key(self) -> str:
        if self.kind == "generate":
            return (
                f"gen:{self.instance}:{self.seed}:{self.divisor}"
                f":{self.n_min}:{self.n_max}"
            )
        digest = hashlib.sha256(
            canonical_json([self.n, [list(map(float, e)) for e in self.edges]])
            .encode()
        ).hexdigest()[:16]
        return f"edges:{digest}"

    def to_wire(self) -> dict:
        if self.kind == "generate":
            return {
                "kind": "generate",
                "instance": self.instance,
                "seed": self.seed,
                "divisor": self.divisor,
                "n_min": self.n_min,
                "n_max": self.n_max,
            }
        return {"kind": "edges", "n": self.n, "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_wire(cls, payload: dict) -> "GraphSpec":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"graph spec must be an object, got {reprlib.repr(payload)}"
            )
        known = {
            "kind", "instance", "seed", "divisor", "n_min", "n_max", "n", "edges",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown graph spec keys {reprlib.repr(unknown)}; known: {sorted(known)}"
            )
        body = dict(payload)
        if "edges" in body:
            if not isinstance(body["edges"], (list, tuple)):
                raise ConfigurationError(
                    "graph edges must be an array of [u, v] or [u, v, weight], "
                    f"got {reprlib.repr(body['edges'])}"
                )
            body["edges"] = tuple(
                tuple(e) if isinstance(e, list) else e for e in body["edges"]
            )
        return cls(**body)


@dataclass
class MapRequest:
    """One unit of serving work, parsed and validated."""

    topology: str
    graph: GraphSpec
    config: PipelineConfig = field(default_factory=PipelineConfig)
    seed: int | None = None
    #: supplied mapping => enhance-only request (partition/map skipped)
    mu: np.ndarray | None = None
    deadline_s: float | None = None
    #: opt-in to degraded answers (response cache / enhance-free) when
    #: the group's breaker is open or the deadline cannot fit a full run
    allow_degraded: bool = False
    #: trace context stamped by the transport layer; pure observability,
    #: deliberately absent from ``group_key``/``work_key`` -- tracing a
    #: request must never change how it batches, caches, or computes
    trace: SpanContext | None = None

    def group_key(self) -> str:
        """Batching group: same topology + same config identity-hash."""
        return cell_key(
            {"topology": self.topology, "config": self.config.identity()}
        )

    def work_key(self) -> tuple:
        """Coalescing identity: requests with equal keys share one run."""
        return (self.graph.cache_key(), self.seed, array_fingerprint(self.mu))


@dataclass
class ServedResult:
    """A pipeline result plus how the scheduler handled it."""

    result: PipelineResult
    batch_size: int
    batch_unique: int
    coalesced: bool
    queue_seconds: float
    compute_seconds: float
    #: degraded answers trade fidelity for availability and are exempt
    #: from the byte-identity contract; ``degraded_mode`` says how
    #: ("no_enhance" = enhance skipped)
    degraded: bool = False
    degraded_mode: str | None = None
    #: answered from the response cache: full fidelity (byte-identical
    #: to a fresh compute by the determinism contract), zero compute
    cached: bool = False
    #: trace id linking this response to its span tree in /debug/traces
    trace_id: str = ""


@dataclass
class _Job:
    request: MapRequest
    future: asyncio.Future
    enqueued: float
    deadline: float | None
    degraded_mode: str | None = None
    #: open ``queue_wait`` span, finished when the batch dispatches
    span: object = None


class _Group:
    __slots__ = ("jobs", "pipeline")

    def __init__(self, pipeline: Pipeline) -> None:
        self.jobs: list[_Job] = []
        #: held here so a dispatch keeps its pipeline even if the
        #: scheduler's pipeline LRU evicts the group key meanwhile
        self.pipeline = pipeline


# ----------------------------------------------------------------------
# Supervised-pool runner (module-level: must pickle into workers)
# ----------------------------------------------------------------------
def _pool_run(pipe: Pipeline, item) -> tuple[PipelineResult, list]:
    """Run one work item -- the exact call a direct library user makes.

    Returns ``(result, finished spans)``: when the item carries a trace
    context, the worker opens a ``pool_execute`` span under it, converts
    the result's stage timings into child spans, and ships the finished
    span dicts back over the result pipe so the scheduler's process can
    merge them into its trace buffer (pool workers have no HTTP
    endpoint of their own).
    """
    _wkey, wire, seed, mu, trace_wire = item
    ga = GraphSpec.from_wire(wire).build()
    ctx = SpanContext.from_wire(trace_wire) if trace_wire else None
    if ctx is None:
        return pipe.run(ga, mu=mu, seed=seed), []
    # A throwaway single-trace tracer: spans travel back on the result
    # channel, so nothing needs to persist worker-side.
    tracer = Tracer(
        process="pool",
        buffer=TraceBuffer(max_traces=4, max_spans_per_trace=256),
    )
    with tracer.span("pool_execute", ctx) as span:
        result = pipe.run(ga, mu=mu, seed=seed)
        result.record_spans(tracer, span.context)
    spans = [s for _tid, trace in tracer.buffer.traces() for s in trace]
    return result, spans


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
class BatchScheduler:
    """Slot-driven micro-batcher over a shared :class:`TopologyCache`.

    Parameters
    ----------
    max_batch:
        most jobs one dispatch takes from a group; the rest wait for the
        next free slot.  ``1`` disables batching.
    max_queue:
        admission bound on in-flight requests across all groups.
    workers:
        size of the supervised worker pool; ``max(1, workers)`` is the
        number of compute slots.  ``0`` (default) computes in-process,
        one request at a time on one executor thread; ``> 0`` moves
        batch compute onto crash-supervised processes with
        requeue/bisection recovery, dispatching up to ``workers`` groups
        concurrently.  Each topology's batches run on one worker
        (:func:`~repro.serve.pool.pinned_worker`); topology sessions stay
        in this process, which warms each pipeline before shipping it.
    max_pipelines:
        LRU bound on cached per-group pipelines (group keys embed
        client-supplied config values, so the cache must not trust
        clients to keep the key space small).  An evicted group's
        compute EWMA goes with it, and pool workers drop its pipeline.
    retry:
        :class:`RetryPolicy` for transient per-item failures.
    breaker_threshold / breaker_reset_s:
        per-group circuit-breaker tuning (consecutive service-side
        failures to open; seconds before a half-open probe).
    faults:
        deterministic :class:`FaultPlan` for chaos testing (``None``
        reads ``REPRO_FAULTS`` once, here).  It drives this scheduler's
        own compute, in-process or on its pool's workers, and no other.
    response_cache_size / response_cache_bytes:
        entry-count and byte bounds on the cross-batch response cache
        checked on the hot path before admission (either 0 disables).
    """

    def __init__(
        self,
        *,
        max_batch: int = 16,
        max_queue: int = 256,
        workers: int = 0,
        max_pipelines: int = 64,
        cache: TopologyCache | None = None,
        metrics: MetricsRegistry | None = None,
        retry: RetryPolicy | None = None,
        breaker_threshold: int = 5,
        breaker_reset_s: float = 10.0,
        faults: FaultPlan | None = None,
        response_cache_size: int = 128,
        response_cache_bytes: int = DEFAULT_RESPONSE_CACHE_BYTES,
        tracer: Tracer | None = None,
        profile: bool = False,
    ) -> None:
        if max_batch < 1 or max_queue < 1 or max_pipelines < 1:
            raise ConfigurationError(
                "max_batch, max_queue and max_pipelines must be >= 1"
            )
        if workers < 0 or response_cache_size < 0:
            raise ConfigurationError(
                "workers and response_cache_size must be >= 0"
            )
        self.max_batch = int(max_batch)
        self.max_queue = int(max_queue)
        self.max_pipelines = int(max_pipelines)
        self.cache = cache if cache is not None else TopologyCache()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_reset_s = float(breaker_reset_s)
        self.faults = faults if faults is not None else FaultPlan.from_env()
        self.response_cache = ResponseCache(
            max_entries=response_cache_size, max_bytes=response_cache_bytes
        )
        self.tracer = tracer if tracer is not None else Tracer()
        self.profile = bool(profile)
        self._fault_clock = FaultClock()
        self._groups: dict[str, _Group] = {}
        #: LRU of assembled pipelines by group key.  Bounded because the
        #: config identity contains client-controlled floats (epsilon):
        #: unbounded, a hostile stream of distinct configs would pin
        #: Topology sessions past the session LRU's own evictions.
        self._pipelines: dict[str, Pipeline] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._compute_ewma: dict[str, float] = {}
        self._pending = 0
        self._closed = False
        self.workers = int(workers)
        self._pool: SupervisedPool | None = None
        if workers > 0:
            self._pool = SupervisedPool(
                _pool_run, workers=workers, name="repro-serve", faults=self.faults
            )
        #: compute slots not running a dispatch; one per executor thread,
        #: so a dispatched batch never waits for a thread
        self._free_slots = max(1, workers)
        self._executor = ThreadPoolExecutor(
            max_workers=self._free_slots,
            thread_name_prefix="repro-serve",
        )
        self._dispatch_tasks: set[asyncio.Task] = set()
        m = self.metrics
        self._m_requests = m.counter(
            "requests_total", "requests admitted to the scheduler"
        )
        self._m_rejected = m.counter(
            "rejected_total", "requests rejected before compute, by reason"
        )
        self._m_batches = m.counter("batches_total", "batch dispatches")
        self._m_coalesced = m.counter(
            "coalesced_total", "requests answered from a shared in-batch run"
        )
        self._m_queue_depth = m.gauge("queue_depth", "in-flight requests")
        self._m_batch_size = m.histogram(
            "batch_size", "requests per dispatched batch",
            bounds=tuple(float(x) for x in (1, 2, 3, 4, 6, 8, 12, 16, 24, 32,
                                            48, 64, 96, 128)),
        )
        self._m_batch_unique = m.histogram(
            "batch_unique", "unique computations per dispatched batch",
            bounds=self._m_batch_size.bounds,
        )
        self._m_queue_s = m.histogram(
            "queue_seconds", "admission -> dispatch wait"
        )
        self._m_compute_s = m.histogram(
            "compute_seconds", "batch computation wall time"
        )
        self._m_retries = m.counter(
            "retries_total", "per-item transient-failure retries"
        )
        self._m_failures = m.counter(
            "failures_total", "work items failed after recovery, by class"
        )
        self._m_degraded = m.counter(
            "degraded_total", "degraded responses served, by mode"
        )
        self._m_cache_hits = m.counter(
            "response_cache_hits_total",
            "requests answered from the cross-batch response cache",
        )
        self._m_cache_misses = m.counter(
            "response_cache_misses_total",
            "requests that missed the response cache and went to compute",
        )
        self._m_cache_evictions = m.counter(
            "response_cache_evictions_total",
            "response-cache entries evicted past the entry/byte budgets",
        )
        self._m_cache_entries = m.gauge(
            "response_cache_entries", "response-cache entries held"
        )
        self._m_cache_bytes = m.gauge(
            "response_cache_bytes", "pickled bytes held by the response cache"
        )
        self._m_worker_restarts = m.gauge(
            "worker_restarts", "pool workers restarted after a crash"
        )
        self._m_poisoned = m.gauge(
            "poisoned_requests", "work items isolated by crash bisection"
        )
        self._m_breakers_open = m.gauge(
            "breakers_open", "dispatch groups currently shedding load"
        )
        self._m_breaker_transitions = m.gauge(
            "breaker_transitions", "circuit state changes across all groups"
        )
        # Per-scenario quality: the serve-time window onto mapping
        # quality drift (ROADMAP item 5) -- last observed value per
        # topology, so a regression shows up in /metrics immediately.
        self._m_quality_cut = m.gauge(
            "quality_cut_edges", "latest mapped edge cut, by topology"
        )
        self._m_quality_coco = m.gauge(
            "quality_objective", "latest Coco objective value, by topology"
        )

    # -- public API ----------------------------------------------------
    @property
    def pending(self) -> int:
        return self._pending

    @property
    def pool(self) -> SupervisedPool | None:
        return self._pool

    def pipeline_for(
        self, request: MapRequest, gkey: str | None = None
    ) -> Pipeline:
        """The (cached) pipeline serving this request's batch group."""
        if gkey is None:
            gkey = request.group_key()
        pipe = self._pipelines.pop(gkey, None)
        if pipe is None:
            topology = self.cache.get(request.topology)
            pipe = Pipeline(topology, request.config)
        self._pipelines[gkey] = pipe  # (re-)insert = most recently used
        while len(self._pipelines) > self.max_pipelines:
            evicted = next(iter(self._pipelines))
            del self._pipelines[evicted]
            self._forget_evicted(evicted)
        return pipe

    def _forget_evicted(self, gkey: str) -> None:
        """Drop a group's compute EWMA and pool payload once the LRU evicts it.

        Called on eviction, and again when a dispatch finishes: a batch
        already in flight when its key was evicted records its EWMA, and
        ships its payload, after the first drop.
        """
        if gkey in self._pipelines:
            return
        self._compute_ewma.pop(gkey, None)
        if self._pool is not None:
            self._pool.forget(gkey)

    def breaker_for(self, gkey: str) -> CircuitBreaker:
        """The (cached) circuit breaker guarding one dispatch group."""
        breaker = self._breakers.pop(gkey, None)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                reset_s=self.breaker_reset_s,
            )
        self._breakers[gkey] = breaker
        while len(self._breakers) > self.max_pipelines:
            # Prefer evicting a healthy breaker; an open one is actively
            # protecting the service from a failing group.
            victim = next(
                (k for k, b in self._breakers.items()
                 if b.state == CircuitBreaker.CLOSED and k != gkey),
                next(iter(self._breakers)),
            )
            self._breakers.pop(victim)
        return breaker

    def breaker_snapshot(self) -> dict:
        """Per-group breaker states (for /healthz introspection)."""
        return {k: b.snapshot() for k, b in self._breakers.items()}

    async def submit(self, request: MapRequest) -> ServedResult:
        """Admit, batch, and await one request (may raise the 4xx errors)."""
        if self._closed:
            raise ReproError("scheduler is closed")
        ctx = request.trace
        trace_id = ctx.trace_id if ctx is not None else ""
        # Hot path: a remembered identical run answers before admission
        # control, batching or breaker checks -- sound because the
        # determinism contract makes the cached result byte-identical to
        # the recompute it replaces.
        if self.response_cache.enabled:
            with self.tracer.span("cache_lookup", ctx) as cache_span:
                hit = self.response_cache.get(
                    (request.group_key(),) + request.work_key()
                )
                cache_span.set(hit=hit is not None)
            if hit is not None:
                self._m_requests.inc()
                self._m_cache_hits.inc()
                return ServedResult(
                    result=hit,
                    batch_size=1,
                    batch_unique=1,
                    coalesced=False,
                    queue_seconds=0.0,
                    compute_seconds=0.0,
                    cached=True,
                    trace_id=trace_id,
                )
            self._m_cache_misses.inc()
        if self._pending >= self.max_queue:
            self._m_rejected.inc(label="queue_full")
            raise QueueFullError(self._pending, self.max_queue, retry_after=0.05)
        gkey = request.group_key()
        # Resolve the pipeline *before* enqueueing so an unknown
        # topology or bad config rejects immediately, not mid-batch.
        pipe = self.pipeline_for(request, gkey)
        degraded_mode: str | None = None
        breaker = self.breaker_for(gkey)
        degrade_reason = None
        if not breaker.allow():
            degrade_reason = "breaker_open"
        elif request.allow_degraded and request.deadline_s is not None:
            ewma = self._compute_ewma.get(gkey)
            # 1.2: a 20% margin over the group's per-item compute EWMA.
            if ewma is not None and request.deadline_s < 1.2 * ewma:
                degrade_reason = "deadline"
        if degrade_reason is not None:
            # The ladder's verdict is observable even when it rejects:
            # the span finishes before the shed error propagates.
            degrade_span = self.tracer.span(
                "degrade_decision", ctx, reason=degrade_reason
            )
            try:
                served = self._degrade(request, gkey, breaker, degrade_reason)
            except BaseException:
                degrade_span.set(outcome="shed")
                degrade_span.finish(status="error")
                raise
            if isinstance(served, ServedResult):
                degrade_span.set(outcome="served")
                degrade_span.finish()
                return served
            request, gkey, pipe, degraded_mode = served
            degrade_span.set(outcome=degraded_mode or "full")
            degrade_span.finish()
        loop = asyncio.get_running_loop()
        now = time.monotonic()
        job = _Job(
            request=request,
            future=loop.create_future(),
            enqueued=now,
            deadline=(now + request.deadline_s) if request.deadline_s else None,
            degraded_mode=degraded_mode,
            span=self.tracer.span("queue_wait", ctx),
        )
        self._pending += 1
        self._m_requests.inc()
        self._m_queue_depth.set(self._pending)
        group = self._groups.get(gkey)
        if group is None:
            group = self._groups[gkey] = _Group(pipe)
        group.jobs.append(job)
        if self._free_slots:
            # On the next tick, not inline: everything this tick admits
            # (a /batch body, pipelined stdio lines) leaves together.
            loop.call_soon(self._pump)
        return await job.future

    async def drain(self) -> None:
        """Wait until every admitted request has been answered."""
        while self._pending or self._dispatch_tasks:
            await asyncio.sleep(0.005)

    def close(self) -> None:
        """Stop accepting work and fail whatever is still queued."""
        self._closed = True
        for group in self._groups.values():
            for job in group.jobs:
                if not job.future.done():
                    job.future.set_exception(ReproError("scheduler closed"))
                self._pending -= 1
        self._groups.clear()
        self._executor.shutdown(wait=False, cancel_futures=True)
        if self._pool is not None:
            self._pool.close()

    # -- degradation ----------------------------------------------------
    def _degrade(
        self,
        request: MapRequest,
        gkey: str,
        breaker: CircuitBreaker,
        reason: str,
    ):
        """Resolve an unhealthy-group/tight-deadline request.

        Returns a rewritten ``(request, gkey, pipe, degraded_mode)``
        tuple to enqueue instead, or raises :class:`CircuitOpenError`.
        (A response-cache replay needs no degradation ladder any more:
        the hot-path check in :meth:`submit` already answered any
        request whose identical run is remembered, at full fidelity.)
        """
        shed = CircuitOpenError(
            f"circuit breaker open for group {gkey}",
            retry_after=breaker.retry_after(),
        )
        if not request.allow_degraded:
            self._m_rejected.inc(label="breaker_open")
            self._refresh_breaker_metrics()
            raise shed
        if request.config.enhance not in ("", "none"):
            bare = replace(
                request, config=replace(request.config, enhance="none")
            )
            bare_key = bare.group_key()
            bare_breaker = self.breaker_for(bare_key)
            if bare_breaker.allow():
                return bare, bare_key, self.pipeline_for(bare, bare_key), "no_enhance"
            self._m_rejected.inc(label="breaker_open")
            self._refresh_breaker_metrics()
            raise shed
        if reason == "breaker_open":
            self._m_rejected.inc(label="breaker_open")
            self._refresh_breaker_metrics()
            raise shed
        # Deadline-pressured but already enhance-free with no cache hit:
        # nothing left to strip, run it straight.
        return request, gkey, self.pipeline_for(request, gkey), None

    # -- internals -----------------------------------------------------
    def _observe_quality(self, topology: str, result) -> None:
        """Serve-time quality + per-stage latency for one fresh result."""
        metrics = getattr(result, "metrics", None) or {}
        if "cut_after" in metrics:
            self._m_quality_cut.set(float(metrics["cut_after"]), label=topology)
        if "coco_after" in metrics:
            self._m_quality_coco.set(
                float(metrics["coco_after"]), label=topology
            )
        for timing in getattr(result, "stage_timings", ()):
            self.metrics.histogram(
                f"stage_seconds_{timing.stage}",
                f"wall seconds spent in the {timing.stage} stage",
            ).observe(timing.seconds)

    def _refresh_breaker_metrics(self) -> None:
        self._m_breakers_open.set(
            sum(1 for b in self._breakers.values()
                if b.state != CircuitBreaker.CLOSED)
        )
        self._m_breaker_transitions.set(
            sum(b.transitions for b in self._breakers.values())
        )

    def _remember(self, gkey: str, request: MapRequest, result) -> None:
        if not self.response_cache.enabled:
            return
        self.response_cache.put((gkey,) + request.work_key(), result)
        stats = self.response_cache.stats()
        self._m_cache_entries.set(stats["entries"])
        self._m_cache_bytes.set(stats["bytes"])
        self._m_cache_evictions.inc(
            stats["evictions"] - self._m_cache_evictions.value
        )

    def _pump(self) -> None:
        """Give each free compute slot the group that has waited longest.

        A slot takes up to ``max_batch`` of the group's jobs.  A group
        with jobs left over goes to the back of the queue, so a hot group
        cannot starve the others; a drained group is dropped, so an idle
        group's pipeline lives only in the (bounded) pipeline LRU.
        """
        loop = asyncio.get_running_loop()
        while self._free_slots and self._groups:
            gkey = next(iter(self._groups))  # dict order is arrival order
            group = self._groups.pop(gkey)
            batch, group.jobs = group.jobs[: self.max_batch], group.jobs[self.max_batch:]
            if group.jobs:
                self._groups[gkey] = group
            self._free_slots -= 1
            task = loop.create_task(self._dispatch(gkey, group.pipeline, batch))
            self._dispatch_tasks.add(task)
            task.add_done_callback(self._slot_freed)

    def _slot_freed(self, task: asyncio.Task) -> None:
        # A done callback runs however the dispatch ended: success,
        # failure, an escaped exception or cancellation.
        self._dispatch_tasks.discard(task)
        self._free_slots += 1
        self._pump()

    def _finish(self, job: _Job, outcome) -> None:
        self._pending -= 1
        self._m_queue_depth.set(self._pending)
        if job.future.done():  # client went away (connection dropped)
            return
        if isinstance(outcome, BaseException):
            job.future.set_exception(outcome)
        else:
            job.future.set_result(outcome)

    def _compute_once(
        self,
        gkey: str,
        pipe: Pipeline,
        reqs: list[MapRequest],
        ctxs: list[SpanContext],
    ):
        """One compute attempt; returns a result-or-exception per request.

        Runs on an executor thread.  Pool mode ships ``(work-key, graph
        wire spec, seed, mu, trace wire)`` items plus the pipeline itself
        as payload and blocks on the per-item futures; worker death
        surfaces here only after the supervisor's requeue/bisection gave
        up.  Otherwise each request runs in-process inside its own
        ``try``, so a malformed graph or failing run fails only its own
        request.  ``ctxs`` are the per-item compute-span contexts: pool
        workers parent their spans under them, the in-process loop
        converts the result's stage timings directly.
        """
        if self._pool is not None:
            pipe.warm_caches()  # labeling accounted to the parent process
            items = [
                (
                    str(req.work_key()),
                    req.graph.to_wire(),
                    req.seed,
                    None if req.mu is None
                    else np.ascontiguousarray(req.mu, dtype=np.int64),
                    ctx.to_wire()
                    if ctx.sampled and ctx.trace_id
                    else None,
                )
                for req, ctx in zip(reqs, ctxs)
            ]
            # All requests in a group share one topology (it is part of
            # the group key), so the whole batch pins to that topology's
            # worker, which keeps its pipelines warm.
            pin = pinned_worker(reqs[0].topology, self.workers)
            futures = self._pool.submit(
                gkey, pipe, items, worker=pin
            )
            outcomes = []
            for future in futures:
                try:
                    value, spans = future.result()
                    if spans:
                        self.tracer.buffer.ingest(spans)
                    outcomes.append(value)
                except BaseException as exc:  # noqa: BLE001 - refiled per item
                    outcomes.append(exc)
            return outcomes
        # Kills are never honored in-process -- that would take down the
        # service itself.
        plan = self.faults
        on_task(plan, self._fault_clock, allow_kill=False)
        outcomes = []
        for req, ctx in zip(reqs, ctxs):
            try:
                on_item(plan, req.work_key(), self._fault_clock, allow_kill=False)
                ga = req.graph.build()
                result = pipe.run(ga, mu=req.mu, seed=req.seed)
                result.record_spans(self.tracer, ctx)
                outcomes.append(result)
            except Exception as exc:  # noqa: BLE001 - refiled per item
                outcomes.append(exc)
        return outcomes

    def _compute_with_retries(
        self,
        gkey: str,
        pipe: Pipeline,
        unique: list[MapRequest],
        order: list[tuple],
        members: dict[tuple, list[_Job]],
        spans: list,
    ) -> list:
        """Compute all unique items, retrying transients with backoff.

        Runs on an executor thread; backoff sleeps block only this
        dispatch, not the event loop.  Before each backoff, items whose
        waiters would *all* miss their deadlines during the sleep are
        failed immediately instead of wasting the recompute.

        ``spans`` are the per-item ``compute`` spans (finished by the
        dispatcher); retry backoffs open child spans under them, and
        ``--profile`` attaches the batch's top-K hotspot frames.
        """
        ctxs = [span.context for span in spans]
        outcomes: list = [None] * len(unique)
        todo = list(range(len(unique)))
        for attempt in range(1, self.retry.max_attempts + 1):
            sub_reqs = [unique[i] for i in todo]
            sub_ctxs = [ctxs[i] for i in todo]
            if self.profile:
                results, frames = profile_call(
                    self._compute_once, gkey, pipe, sub_reqs, sub_ctxs,
                    top=PROFILE_TOP,
                )
                for i in todo:
                    spans[i].set(profile=frames)
            else:
                results = self._compute_once(gkey, pipe, sub_reqs, sub_ctxs)
            for i, out in zip(todo, results):
                outcomes[i] = out
            if attempt == self.retry.max_attempts:
                break
            retryable = [
                i for i in todo
                if isinstance(outcomes[i], BaseException)
                and self.retry.is_retryable(outcomes[i])
            ]
            if not retryable:
                break
            delay = max(
                self.retry.delay(str(order[i]), attempt) for i in retryable
            )
            horizon = time.monotonic() + delay
            todo = []
            for i in retryable:
                jobs = members[order[i]]
                if all(
                    j.deadline is not None and horizon > j.deadline for j in jobs
                ):
                    exc = DeadlineExceededError(
                        "deadline would pass during retry backoff "
                        f"(attempt {attempt}, {delay:.3f}s)"
                    )
                    exc.during_retry = True
                    outcomes[i] = exc
                else:
                    todo.append(i)
            if not todo:
                break
            self._m_retries.inc(len(todo))
            backoff_spans = [
                self.tracer.span(
                    "retry_backoff", ctxs[i], attempt=attempt, delay_s=delay
                )
                for i in todo
            ]
            time.sleep(delay)
            for span in backoff_spans:
                span.finish()
        return outcomes

    async def _dispatch(
        self, gkey: str, pipe: Pipeline, batch: list[_Job]
    ) -> None:
        now = time.monotonic()
        live: list[_Job] = []
        for job in batch:
            if job.deadline is not None and now > job.deadline:
                job.span.set(outcome="deadline_queued")
                job.span.finish(status="error")
                self._m_rejected.inc(label="deadline_queued")
                self._finish(
                    job,
                    DeadlineExceededError(
                        f"deadline passed after {now - job.enqueued:.3f}s in queue"
                    ),
                )
            else:
                job.span.finish()
                live.append(job)
        if not live:
            return
        # Coalesce: one computation per distinct work identity.
        order: list[tuple] = []
        members: dict[tuple, list[_Job]] = {}
        for job in live:
            key = job.request.work_key()
            if key not in members:
                members[key] = []
                order.append(key)
            members[key].append(job)
        unique = [members[key][0].request for key in order]
        # One compute span per unique item, parented under the *primary*
        # waiter's trace: a coalesced follower's tree records that it
        # coalesced (ServedResult.coalesced), not a duplicate subtree.
        compute_spans = [
            self.tracer.span(
                "compute",
                members[key][0].request.trace,
                batch_size=len(live),
                batch_unique=len(unique),
                pooled=self._pool is not None,
            )
            for key in order
        ]
        loop = asyncio.get_running_loop()
        t0 = time.monotonic()
        outcomes = await loop.run_in_executor(
            self._executor,
            self._compute_with_retries,
            gkey, pipe, unique, order, members, compute_spans,
        )
        compute_s = time.monotonic() - t0
        for span, out in zip(compute_spans, outcomes):
            span.finish(
                status="error" if isinstance(out, BaseException) else "ok"
            )
        done = time.monotonic()
        self._m_batches.inc()
        self._m_batch_size.observe(len(live))
        self._m_batch_unique.observe(len(unique))
        self._m_coalesced.inc(len(live) - len(unique))
        self._m_compute_s.observe(compute_s)
        ewma = self._compute_ewma.get(gkey)
        per_item_s = compute_s / max(1, len(unique))
        self._compute_ewma[gkey] = (
            per_item_s if ewma is None else 0.7 * ewma + 0.3 * per_item_s
        )
        breaker = self.breaker_for(gkey)
        for i, key in enumerate(order):
            out = outcomes[i]
            if isinstance(out, BaseException):
                # Only service-side failures inform the breaker: client
                # errors and deadline misses say nothing about health.
                if isinstance(out, (TransientError, PermanentError)):
                    breaker.record_failure()
                    self._m_failures.inc(label=type(out).__name__)
            else:
                breaker.record_success()
                self._remember(gkey, unique[i], out)
                self._observe_quality(unique[i].topology, out)
            for j, job in enumerate(members[key]):
                self._m_queue_s.observe(t0 - job.enqueued)
                if isinstance(out, BaseException):
                    if isinstance(out, DeadlineExceededError):
                        label = (
                            "deadline_retry"
                            if getattr(out, "during_retry", False)
                            else "deadline_compute"
                        )
                        self._m_rejected.inc(label=label)
                    self._finish(job, out)
                elif job.deadline is not None and done > job.deadline:
                    self._m_rejected.inc(label="deadline_compute")
                    self._finish(
                        job,
                        DeadlineExceededError(
                            f"deadline passed during a {compute_s:.3f}s batch"
                        ),
                    )
                else:
                    if job.degraded_mode is not None:
                        self._m_degraded.inc(label=job.degraded_mode)
                    self._finish(
                        job,
                        ServedResult(
                            result=out,
                            batch_size=len(live),
                            batch_unique=len(unique),
                            coalesced=j > 0,
                            queue_seconds=t0 - job.enqueued,
                            compute_seconds=compute_s,
                            degraded=job.degraded_mode is not None,
                            degraded_mode=job.degraded_mode,
                            trace_id=(
                                job.request.trace.trace_id
                                if job.request.trace is not None
                                else ""
                            ),
                        ),
                    )
        self._forget_evicted(gkey)
        if self._pool is not None:
            stats = self._pool.stats()
            self._m_worker_restarts.set(stats["restarts"])
            self._m_poisoned.set(stats["poisoned"])
        self._refresh_breaker_metrics()
