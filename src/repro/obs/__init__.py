"""Observability: end-to-end tracing, structured logging, profiling.

``repro.obs`` is the stdlib-only window into the serve tier's layers
(service -> scheduler in the serving process -> pool worker -> pipeline
stages) and into offline sweeps:

- :mod:`repro.obs.trace` -- spans with *deterministic* ids derived from
  the request's run identity, monotonic-clock durations, a bounded
  ring buffer per tracer, and wire-format contexts that cross process
  boundaries (HTTP payload field, pool pipe items);
- :mod:`repro.obs.log` -- a JSON-lines event logger replacing ad-hoc
  prints in serve/, the pool supervisor and the experiment runner
  (enforced by lint rule OBS001);
- :mod:`repro.obs.profile` -- an opt-in cProfile hook attaching top-K
  hotspot frames to a span.

Nothing here may influence results: tracing and logging are pure
observers of the determinism contract, never inputs to it.  See
``docs/observability.md``.
"""

from repro.obs.log import EventLogger, get_logger, set_process_fields
from repro.obs.profile import profile_call
from repro.obs.trace import (
    Span,
    SpanContext,
    TraceBuffer,
    Tracer,
    build_tree,
    derive_trace_id,
    tree_signature,
)

__all__ = [
    "EventLogger",
    "Span",
    "SpanContext",
    "TraceBuffer",
    "Tracer",
    "build_tree",
    "derive_trace_id",
    "get_logger",
    "profile_call",
    "set_process_fields",
    "tree_signature",
]
