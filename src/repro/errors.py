"""Exception hierarchy for the :mod:`repro` package.

Keeping a small, explicit hierarchy lets callers distinguish between
user errors (bad arguments, malformed files) and structural errors
(graph is not a partial cube, mapping is infeasible) without string
matching on messages.
"""


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphFormatError(ReproError):
    """A graph file or in-memory description is malformed."""


class NotPartialCubeError(ReproError):
    """Raised when a processor graph fails partial-cube recognition.

    The optional ``reason`` attribute carries the specific structural
    violation (non-bipartite, overlapping Djokovic classes, distance
    mismatch) for diagnostics.
    """

    def __init__(self, message: str, reason: str = "unknown"):
        super().__init__(message)
        self.reason = reason


class BalanceError(ReproError):
    """A partition or mapping violates its balance constraint."""


class MappingError(ReproError):
    """A mapping is structurally invalid (wrong size, out of range, ...)."""


class ConfigurationError(ReproError):
    """Invalid algorithm configuration."""


class TransientError(ReproError):
    """A failure that is expected to clear on retry.

    Worker-process death, cache I/O hiccups, injected chaos faults and
    load-shedding all land here.  The serving layer maps transients to
    ``503`` (or ``429`` for admission rejects) with a ``Retry-After``
    hint; the scheduler's retry policy only ever retries this class --
    anything else recomputing would just fail again.
    """

    #: seconds a client should wait before retrying (serve layers may
    #: override per instance; 0 means "immediately").
    retry_after: float = 0.0


class PermanentError(ReproError):
    """A failure no retry can fix (maps to HTTP 500).

    Distinguished from plain :class:`ReproError` (client-input problems,
    HTTP 400): a ``PermanentError`` means the *service* definitively
    failed this unit of work -- e.g. a poison request that crashes every
    worker it touches.
    """


class PoisonRequestError(PermanentError):
    """One isolated work item repeatedly crashed its worker.

    Produced by the supervised pool's bisection: after a batch crash is
    narrowed down to a single item that still kills a fresh worker, that
    item is failed permanently (HTTP 500) so the rest of the batch can
    succeed.
    """


class CircuitOpenError(TransientError):
    """A group's circuit breaker is open; load is being shed (HTTP 503)."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)
