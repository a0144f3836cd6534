"""JSON-lines structured event logging.

One event per line on stderr (or any stream), every line a flat JSON
object with a fixed envelope::

    {"ts": <unix seconds>, "level": "info", "component": "serve",
     "event": "serve_listening", ...event fields...}

plus whatever process-wide fields were bound with
:func:`set_process_fields` (``worker_generation``, ...)
and per-logger fields bound with :meth:`EventLogger.bind`.  ``trace_id``
rides as an ordinary field, linking log lines to span trees.

The event name is the taxonomy: past-tense, snake_case, stable --
``request_rejected``, ``worker_restarted``, ``sweep_task_finished`` --
so operators grep by event, not by message prose.  Lint rule OBS001
bans ad-hoc ``print()`` / ``sys.stderr.write`` in the serve tree and
the experiment runner; this module is the sanctioned emitter.

Emission is a single buffered ``write`` + ``flush`` of one line --
cheap enough for the request path, atomic enough that concurrent
processes interleave whole lines, and safe from the serve tree's
SRV001 (no blocking primitives opened inside ``async def``; the
stream already exists).
"""

from __future__ import annotations

import json
import sys
import threading
import time

_LEVELS = ("debug", "info", "warn", "error")


class EventLogger:
    """A component-scoped emitter of JSON-line events.

    ``stream=None`` resolves ``sys.stderr`` at emit time, so test
    harnesses that swap stderr capture the lines.
    """

    def __init__(
        self,
        component: str,
        stream=None,
        fields: dict | None = None,
        enabled: bool = True,
    ) -> None:
        self.component = component
        self.stream = stream
        self.fields = dict(fields) if fields else {}
        self.enabled = enabled

    def bind(self, **fields: object) -> "EventLogger":
        """A child logger with extra fields stamped on every event."""
        merged = dict(self.fields)
        merged.update(fields)
        return EventLogger(
            self.component, self.stream, merged, self.enabled
        )

    def emit(self, level: str, event: str, **fields: object) -> None:
        if not self.enabled:
            return
        record: dict = {
            "ts": round(time.time(), 6),
            "level": level if level in _LEVELS else "info",
            "component": self.component,
            "event": event,
        }
        with _fields_lock:
            record.update(_process_fields)
        record.update(self.fields)
        record.update(fields)
        line = json.dumps(
            record, sort_keys=True, separators=(",", ":"), default=str
        )
        stream = self.stream if self.stream is not None else sys.stderr
        try:
            stream.write(line + "\n")
            stream.flush()
        except (ValueError, OSError):
            pass  # a closed stderr must never take down the service

    def debug(self, event: str, **fields: object) -> None:
        self.emit("debug", event, **fields)

    def info(self, event: str, **fields: object) -> None:
        self.emit("info", event, **fields)

    def warn(self, event: str, **fields: object) -> None:
        self.emit("warn", event, **fields)

    def error(self, event: str, **fields: object) -> None:
        self.emit("error", event, **fields)


_fields_lock = threading.Lock()
_process_fields: dict = {}
_loggers_lock = threading.Lock()
_loggers: dict[str, EventLogger] = {}


def set_process_fields(**fields: object) -> None:
    """Bind fields onto every logger in this process (worker generation,
    ...).  A value of ``None`` removes the field."""
    with _fields_lock:
        for key, value in fields.items():
            if value is None:
                _process_fields.pop(key, None)
            else:
                _process_fields[key] = value


def get_logger(component: str) -> EventLogger:
    """The process-wide logger for ``component`` (memoized)."""
    with _loggers_lock:
        logger = _loggers.get(component)
        if logger is None:
            logger = _loggers[component] = EventLogger(component)
        return logger
