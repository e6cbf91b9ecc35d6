"""Metric primitives: counters, gauges and histograms behind one registry.

Instrumented code never talks to the registry on the hot path — it asks
for a metric handle *once* (at attach time) and then calls ``inc`` /
``set`` / ``observe`` on it.  A disabled registry hands out the shared
:data:`NULL_METRIC` singleton whose methods are empty, so the hooks
degrade to a bound no-op call; code that wants to skip even that checks
:attr:`MetricsRegistry.enabled` and simply never attaches.

Names are free-form dotted strings (``engine.interference_evaluations``,
``channel.resolve_seconds``); asking for the same name twice returns the
same handle, so independent components can share an accumulator.
"""

from __future__ import annotations

from bisect import bisect_right
from math import inf

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
]


class _NullMetric:
    """Shared do-nothing metric a disabled registry hands out."""

    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        """No-op."""

    def set(self, value: float) -> None:
        """No-op."""

    def set_max(self, value: float) -> None:
        """No-op."""

    def observe(self, value: float) -> None:
        """No-op."""

    @property
    def value(self) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {}


NULL_METRIC = _NullMetric()


class Counter:
    """A monotonically increasing accumulator."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount

    def snapshot(self) -> dict:
        """JSON-ready state: ``{"kind", "value"}``."""
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = value

    def set_max(self, value: float) -> None:
        """Keep the running maximum of all writes."""
        if value > self.value:
            self.value = value

    def snapshot(self) -> dict:
        """JSON-ready state: ``{"kind", "value"}``."""
        return {"kind": self.kind, "value": self.value}


# Default histogram buckets: ~1 µs .. ~100 s when observing seconds, and
# equally serviceable for slot counts; upper edges, last bucket open.
_DEFAULT_BUCKETS = tuple(
    round(m * 10.0**e, 10) for e in range(-6, 3) for m in (1.0, 2.5, 5.0)
)


class Histogram:
    """Count / sum / min / max plus fixed log-spaced bucket counts.

    Cheap enough for per-slot observation (one ``bisect`` per sample) but
    still able to answer distribution questions offline — the bucket
    upper edges travel with every snapshot.
    """

    __slots__ = ("name", "count", "total", "vmin", "vmax", "buckets", "counts")

    kind = "histogram"

    def __init__(self, name: str, buckets: tuple[float, ...] = _DEFAULT_BUCKETS) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.vmin = inf
        self.vmax = -inf
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.counts[bisect_right(self.buckets, value)] += 1

    @property
    def mean(self) -> float:
        """Mean of all samples (0.0 before the first)."""
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """JSON-ready state including the bucket edges and counts."""
        return {
            "kind": self.kind,
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.vmin if self.count else None,
            "max": self.vmax if self.count else None,
            "buckets": list(self.buckets),
            "counts": list(self.counts),
        }


class MetricsRegistry:
    """A named family of counters, gauges and histograms.

    ``enabled=False`` makes every factory return :data:`NULL_METRIC` and
    :meth:`snapshot` return ``{}`` — the disabled registry records
    nothing and allocates nothing per metric.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, factory):
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, factory):
                raise ValueError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = factory(name)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        """The counter registered under ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_METRIC
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge registered under ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_METRIC
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under ``name`` (created on first use)."""
        if not self.enabled:
            return NULL_METRIC
        return self._get(name, Histogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def snapshot(self) -> dict[str, dict]:
        """All metrics as ``{name: metric.snapshot()}`` (sorted by name)."""
        return {
            name: self._metrics[name].snapshot() for name in sorted(self._metrics)
        }

    def rows(self) -> list[dict]:
        """Flat ``{"metric", "kind", "value"}`` rows for ``format_table``.

        Histograms report their count, mean, min and max as four separate
        derived rows so the table stays scalar-valued.
        """
        rows: list[dict] = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            if isinstance(metric, Histogram):
                snap = metric.snapshot()
                for stat in ("count", "mean", "min", "max"):
                    rows.append(
                        {
                            "metric": f"{name}.{stat}",
                            "kind": metric.kind,
                            "value": snap[stat],
                        }
                    )
            else:
                rows.append(
                    {"metric": name, "kind": metric.kind, "value": metric.value}
                )
        return rows
