"""Process-wide metrics registry: counters, gauges, histograms.

The solver stack increments a shared :class:`MetricsRegistry` as it works —
B&B nodes expanded, LP pivots, cache hits and misses, heuristic
fallbacks, incumbent improvements. A registry snapshot is a plain nested
dict, so it folds directly into ``repro design --json`` payloads and
experiment footers, and two runs of the same workload produce identical
count-valued metrics regardless of worker count (time-valued metrics are
reported separately so deterministic comparisons can exclude them).

The default registry is process-global (:func:`get_metrics`); tests and
scoped measurements install their own via :func:`use_metrics`.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from typing import Iterator


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def as_value(self) -> int:
        return self.value


class Gauge:
    """Last-written value (e.g. the current best bound)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = float(value)

    def as_value(self) -> float | None:
        return self.value


class Histogram:
    """Streaming summary of observations: count / total / min / max / mean.

    Deliberately reservoir-free: the summary is exact, order-independent,
    and mergeable, which keeps parallel runs aggregatable without storing
    every sample.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)

    @property
    def mean(self) -> float | None:
        return self.total / self.count if self.count else None

    def as_value(self) -> dict:
        if not self.count:
            return {"count": 0, "total": 0.0, "min": None, "max": None, "mean": None}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }


class MetricsRegistry:
    """Named metric instruments, created on first use.

    A name identifies exactly one instrument; asking for the same name with
    a different kind is a programming error and raises ``TypeError``.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} is a {type(metric).__name__}, not a {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def snapshot(self) -> dict:
        """JSON-ready view of every instrument, sorted by name."""
        return {name: self._metrics[name].as_value() for name in sorted(self._metrics)}

    def counts(self) -> dict[str, int]:
        """Only the counters — the deterministic, worker-count-invariant part."""
        return {
            name: metric.value
            for name, metric in sorted(self._metrics.items())
            if isinstance(metric, Counter)
        }

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry's instruments into this one.

        Counters and histogram summaries add; gauges take the other's value
        when set (last writer wins, matching their semantics).
        """
        for name, metric in other._metrics.items():
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, Gauge):
                if metric.value is not None:
                    self.gauge(name).set(metric.value)
            elif isinstance(metric, Histogram):
                mine = self.histogram(name)
                mine.count += metric.count
                mine.total += metric.total
                mine.min = min(mine.min, metric.min)
                mine.max = max(mine.max, metric.max)

    def reset(self) -> None:
        self._metrics.clear()

    def __len__(self) -> int:
        return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


_ACTIVE_METRICS = MetricsRegistry()


def get_metrics() -> MetricsRegistry:
    """The process-wide metrics registry the solver stack writes into."""
    return _ACTIVE_METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install ``registry`` as the process-wide registry; returns the previous."""
    global _ACTIVE_METRICS
    previous = _ACTIVE_METRICS
    _ACTIVE_METRICS = registry
    return previous


@contextmanager
def use_metrics(registry: MetricsRegistry | None = None) -> Iterator[MetricsRegistry]:
    """Scope a fresh (or given) registry as process-wide for a ``with`` block."""
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_metrics(registry)
    try:
        yield registry
    finally:
        set_metrics(previous)
