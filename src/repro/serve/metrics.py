"""Lock-cheap serving metrics: counters, gauges, latency histograms.

The serving layer records everything operators ask a mapping service
about -- request/response rates, rejection reasons, queue depth, batch
size distribution, end-to-end and compute latency percentiles, cache
traffic -- without ever taking a lock on the request path.  Every update
is a single int/float operation on a plain attribute, atomic enough
under the GIL; readers (the ``/metrics`` endpoint) tolerate snapshots
that are a few updates stale.

Rendering comes in two flavors:

- :meth:`MetricsRegistry.render_json` -- one nested dict, the schema
  documented in ``docs/serving.md`` (machine-friendly, used by the
  benchmarks and the CI smoke assertions);
- :meth:`MetricsRegistry.render_prometheus` -- Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` plus samples), so a scrape
  target needs no extra dependency.

Histograms are fixed-bucket (log-spaced by default, ~18% resolution per
decade), counting observations per bucket plus exact count/sum/min/max.
Percentiles interpolate linearly inside the winning bucket -- the
standard Prometheus estimation, accurate to a bucket width, which is
plenty for p50/p95/p99 dashboards and regression floors.
"""

from __future__ import annotations

import math
import time

from repro.errors import ConfigurationError


def default_latency_buckets() -> tuple[float, ...]:
    """Log-spaced seconds buckets from 100 microseconds to ~2 minutes."""
    return tuple(1e-4 * (2.0 ** (i / 2)) for i in range(41))


class Counter:
    """Monotonic counter, optionally split by one label value."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._children: dict[str, float] = {}

    def inc(self, amount: float = 1.0, label: str | None = None) -> None:
        self.value += amount
        if label is not None:
            self._children[label] = self._children.get(label, 0.0) + amount

    def labels(self) -> dict[str, float]:
        return dict(self._children)


class Gauge:
    """A value that goes up and down, optionally split by one label.

    Labeled children track the last value set per label (e.g. the
    latest cut-edge count per topology), mirroring :class:`Counter`'s
    single-label children so the renderers treat both shapes uniformly.
    """

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self._children: dict[str, float] = {}

    def set(self, value: float, label: str | None = None) -> None:
        self.value = float(value)
        if label is not None:
            self._children[label] = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def labels(self) -> dict[str, float]:
        return dict(self._children)


class Histogram:
    """Fixed-bucket histogram with exact count/sum/min/max.

    ``bounds`` are the inclusive upper edges of the finite buckets; one
    implicit overflow bucket catches everything beyond the last edge.
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        bounds: tuple[float, ...] | None = None,
    ) -> None:
        self.name = name
        self.help = help
        self.bounds = tuple(bounds) if bounds is not None else default_latency_buckets()
        if list(self.bounds) != sorted(self.bounds):
            raise ConfigurationError(
                f"histogram bounds must be ascending: {self.bounds}"
            )
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        lo, hi = 0, len(self.bounds)
        while lo < hi:  # leftmost bucket whose edge >= value
            mid = (lo + hi) // 2
            if self.bounds[mid] >= value:
                hi = mid
            else:
                lo = mid + 1
        self.bucket_counts[lo] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile (``q`` in [0, 1]) from the buckets.

        Linear interpolation inside the winning bucket, clamped to the
        exact observed min/max so tails never report impossible values.
        The boundaries are exact, not interpolated: ``q=0`` is the
        observed min, ``q=1`` the observed max, a single observation is
        itself at every ``q``, and an empty histogram reports ``0.0``.
        """
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile {q} outside [0, 1]")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            return self.min
        if q == 1.0 or self.count == 1:
            # q=1 is the max by definition; with one observation every
            # quantile *is* that observation (min == max), so skip the
            # in-bucket interpolation that would otherwise report a
            # fraction of the bucket width as signal.
            return self.max if q == 1.0 else self.min
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.bucket_counts):
            seen += c
            if seen >= rank and c:
                lower = self.bounds[i - 1] if i > 0 else 0.0
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (rank - (seen - c)) / c
                est = lower + (upper - lower) * frac
                return min(max(est, self.min), self.max)
        return self.max

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
        }


class MetricsRegistry:
    """Name -> metric map with the two renderers.

    Metric constructors are idempotent: asking for an existing name
    returns the live metric, so components can share counters without
    coordinating creation order.
    """

    def __init__(self, namespace: str = "repro_serve") -> None:
        self.namespace = namespace
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._started = time.monotonic()

    def _get(self, cls, name: str, help: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {type(metric).__name__}"
            )
        return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "", bounds: tuple[float, ...] | None = None
    ) -> Histogram:
        return self._get(Histogram, name, help, bounds=bounds)

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._started

    # -- rendering -----------------------------------------------------
    def render_json(self, extra: dict | None = None) -> dict:
        """The documented JSON metrics schema (see docs/serving.md)."""
        out: dict = {"uptime_seconds": self.uptime_seconds}
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Histogram):
                out[name] = metric.snapshot()
            else:
                # Counters and gauges share the labeled shape: a bare
                # number when unlabeled, {"total": ..., label: ...}
                # when split.
                out[name] = (
                    {"total": metric.value, **metric.labels()}
                    if metric.labels()
                    else metric.value
                )
        if extra:
            out.update(extra)
        return out

    def render_prometheus(self, extra: dict | None = None) -> str:
        """Prometheus text exposition format, one block per metric."""
        ns = self.namespace
        lines: list[str] = []

        def emit(name: str, kind: str, help: str) -> str:
            full = f"{ns}_{name}"
            if help:
                lines.append(f"# HELP {full} {help}")
            lines.append(f"# TYPE {full} {kind}")
            return full

        lines.append(f"# TYPE {ns}_uptime_seconds gauge")
        lines.append(f"{ns}_uptime_seconds {self.uptime_seconds:.6f}")
        for name, metric in sorted(self._metrics.items()):
            if isinstance(metric, Counter):
                full = emit(name, "counter", metric.help)
                if metric.labels():
                    # Labeled counters emit ONLY their children: a bare
                    # total sample in the same family would double-count
                    # under sum() and trip exposition linters.
                    for label, value in sorted(metric.labels().items()):
                        lines.append(f'{full}{{label="{label}"}} {value:g}')
                else:
                    lines.append(f"{full} {metric.value:g}")
            elif isinstance(metric, Gauge):
                full = emit(name, "gauge", metric.help)
                if metric.labels():
                    for label, value in sorted(metric.labels().items()):
                        lines.append(f'{full}{{label="{label}"}} {value:g}')
                else:
                    lines.append(f"{full} {metric.value:g}")
            else:
                full = emit(name, "histogram", metric.help)
                cumulative = 0
                for edge, c in zip(metric.bounds, metric.bucket_counts):
                    cumulative += c
                    lines.append(f'{full}_bucket{{le="{edge:g}"}} {cumulative}')
                lines.append(f'{full}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{full}_sum {metric.sum:g}")
                lines.append(f"{full}_count {metric.count}")
        if extra:
            for key, value in sorted(extra.items()):
                if isinstance(value, (int, float)):
                    lines.append(f"# TYPE {ns}_{key} gauge")
                    lines.append(f"{ns}_{key} {value:g}")
                elif isinstance(value, str):
                    # Prometheus "info" idiom: the string rides in a
                    # label on a constant-1 gauge (text exposition has
                    # no string samples).
                    lines.append(f"# TYPE {ns}_{key}_info gauge")
                    lines.append(f'{ns}_{key}_info{{value="{value}"}} 1')
        return "\n".join(lines) + "\n"
