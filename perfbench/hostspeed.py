"""Host-speed probe: how fast the measuring CPU runs Python at each moment.

On a shared host the CPU runs up to half as fast, for moments or for
minutes, while other tenants are busy, and the wall time of the same
work swings with it.  While the probe runs, a timer signal interrupts
the main thread every ``INTERVAL_S`` and times a fixed pure-Python
loop there: on the same CPU, at the same moments as the work.  An
interval's *reference seconds* are its wall seconds times
``REFERENCE_S`` over the loop's mean time in that interval: the time
the work would take on a host where the loop takes ``REFERENCE_S``
(about a quiet host's figure).

A process that drives a server pins itself and the server to one CPU,
so the probe samples the CPU the server computes on.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.025
LOOP = 10_000
#: The loop's time on a quiet host (x86-64, CPython 3.11).
REFERENCE_S = 0.0004
#: An interval with fewer samples borrows its nearest neighbours'.
MIN_SAMPLES = 8

#: end time and duration of every probe so far, in time order
_stamps: list[float] = []
_durations: list[float] = []


def _probe(signum, frame) -> None:
    t0 = time.perf_counter()
    s = 0
    for j in range(LOOP):
        s += j & 7
    t1 = time.perf_counter()
    _stamps.append(t1)
    _durations.append(t1 - t0)


def start() -> None:
    """Probe from now on (main thread only)."""
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def speed(t0: float, t1: float) -> float:
    """Reference seconds per wall second over ``[t0, t1]`` (``perf_counter`` times)."""
    lo = bisect.bisect_left(_stamps, t0)
    hi = bisect.bisect_right(_stamps, t1)
    while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(_stamps)):
        lo, hi = max(lo - 1, 0), min(hi + 1, len(_stamps))
    if lo == hi:
        raise RuntimeError("the host-speed probe took no samples")
    return REFERENCE_S / statistics.fmean(_durations[lo:hi])


def reference_seconds(t0: float, t1: float) -> float:
    """The interval ``[t0, t1]`` in reference seconds."""
    return (t1 - t0) * speed(t0, t1)
