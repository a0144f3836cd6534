"""``repro.serve``: the pipeline as a long-running mapping service.

Layers (bottom up):

- :mod:`repro.serve.metrics` -- lock-cheap counters / gauges / latency
  histograms with JSON and Prometheus rendering;
- :mod:`repro.serve.cache` -- the two-tier topology cache (bounded
  session LRU shared with :meth:`repro.api.Topology.from_name`, npz disk
  tier behind it);
- :mod:`repro.serve.faults` -- deterministic fault-injection plans
  (worker kills, injected stage errors, latency spikes) driven by
  ``REPRO_FAULTS`` / ``--faults``;
- :mod:`repro.serve.pool` -- the supervised worker pool, the one way
  work fans out to processes: crash detection via process sentinels,
  worker restart, requeue of lost batches, bisection to isolate poison
  requests, and the rendezvous pin that keeps each topology on one
  worker;
- :mod:`repro.serve.retry` -- bounded retries with exponential backoff
  and deterministic jitter, plus per-group circuit breakers;
- :mod:`repro.serve.scheduler` -- micro-batching with request
  coalescing, admission control, per-request deadlines and graceful
  degradation, dispatching in-process or through the supervised pool;
- :mod:`repro.serve.service` -- the asyncio JSON-over-HTTP front end
  (``/map``, ``/enhance``, ``/batch``, ``/healthz``, ``/metrics``) and
  the JSON-lines stdio mode;
- :mod:`repro.serve.loadgen` -- a deterministic open-loop load
  generator over scenario-derived request mixes.

Protocol, batching semantics and the determinism contract are
documented in ``docs/serving.md``; ``python -m repro serve`` and
``python -m repro loadgen`` are the CLI entry points, and
``benchmarks/bench_serve.py`` measures the batched-vs-unbatched
throughput and tail latency into ``BENCH_serve.json``.
"""

from repro.serve.cache import TopologyCache
from repro.serve.faults import FaultPlan, corrupt_cache_dir, corrupt_npz_file
from repro.serve.loadgen import LoadProfile, LoadReport, generate_load, run_load
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.pool import SupervisedPool
from repro.serve.retry import CircuitBreaker, RetryPolicy
from repro.serve.scheduler import (
    BatchScheduler,
    DeadlineExceededError,
    GraphSpec,
    MapRequest,
    QueueFullError,
    ServedResult,
)
from repro.serve.service import (
    MappingService,
    ServeSettings,
    ServerThread,
    build_service,
    parse_config,
    parse_request,
    run_server,
)

__all__ = [
    "TopologyCache",
    "FaultPlan",
    "corrupt_cache_dir",
    "corrupt_npz_file",
    "SupervisedPool",
    "CircuitBreaker",
    "RetryPolicy",
    "LoadProfile",
    "LoadReport",
    "generate_load",
    "run_load",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "BatchScheduler",
    "DeadlineExceededError",
    "GraphSpec",
    "MapRequest",
    "QueueFullError",
    "ServedResult",
    "MappingService",
    "ServeSettings",
    "ServerThread",
    "build_service",
    "parse_config",
    "parse_request",
    "run_server",
]
