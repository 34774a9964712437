"""Metrics registry: counters, gauges and latency histograms with snapshots.

One process-wide :class:`MetricsRegistry` (:data:`METRICS`) is shared by every
instrumented module — the order-decision counters and latencies of
:mod:`repro.predicates.order`, the prover's proof-event counters, the rule
checker's per-rule counters, … — and can be read at any time with
:func:`metrics_snapshot`.

Metrics are identified by a name plus a (possibly empty) set of ``key=value``
labels; ``registry.counter("prover.events", kind="rule")`` returns the same
:class:`Counter` on every call.  Snapshots render labelled names Prometheus
style: ``prover.events{kind=rule}``.

Everything is thread-safe and dependency-free; recording a metric is a lock
plus an addition, cheap enough to stay enabled unconditionally (unlike span
tracing, which is opt-in).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterator, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "metrics_snapshot",
]

#: Upper edges (seconds) of the latency histogram buckets; the last bucket is
#: unbounded.  Spanning 10 µs … 100 s covers every pipeline stage shipped.
DEFAULT_BUCKETS: Tuple[float, ...] = (1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        """The current count."""
        return self._value


class Gauge:
    """A metric holding the last value it was set to."""

    __slots__ = ("_value", "_lock")

    def __init__(self) -> None:
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        """The last value set."""
        return self._value


class Histogram:
    """A latency histogram: count/total/min/max plus bucketed observations."""

    __slots__ = ("_buckets", "_counts", "_count", "_total", "_min", "_max", "_lock")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self._buckets = tuple(buckets)
        self._counts = [0] * (len(self._buckets) + 1)
        self._count = 0
        self._total = 0.0
        self._min = float("inf")
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation (typically seconds of latency)."""
        value = float(value)
        with self._lock:
            self._count += 1
            self._total += value
            self._min = min(self._min, value)
            self._max = max(self._max, value)
            for index, edge in enumerate(self._buckets):
                if value <= edge:
                    self._counts[index] += 1
                    return
            self._counts[-1] += 1

    def snapshot(self) -> Dict[str, Any]:
        """Return count/total/mean/min/max and the per-bucket counts."""
        with self._lock:
            count = self._count
            return {
                "count": count,
                "total": round(self._total, 9),
                "mean": round(self._total / count, 9) if count else 0.0,
                "min": round(self._min, 9) if count else 0.0,
                "max": round(self._max, 9),
                "buckets": {
                    (f"<={edge:g}" if index < len(self._buckets) else "+inf"): self._counts[index]
                    for index, edge in enumerate(list(self._buckets) + [float("inf")])
                },
            }


def _render_name(name: str, labels: Tuple[Tuple[str, Any], ...]) -> str:
    """Render ``name`` with its labels, Prometheus style."""
    if not labels:
        return name
    body = ",".join(f"{key}={value}" for key, value in labels)
    return f"{name}{{{body}}}"


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created on first access and identified by
    ``(name, sorted labels)``; repeated calls return the same object.
    """

    def __init__(self) -> None:
        self._counters: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], Counter] = {}
        self._gauges: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], Gauge] = {}
        self._histograms: Dict[Tuple[str, Tuple[Tuple[str, Any], ...]], Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------ access
    # Looking up an existing instrument is one atomic dict read; only its
    # creation takes the lock, so two racing callers get the same object.

    def _create(self, table: Dict, key: Tuple, factory):
        with self._lock:
            return table.setdefault(key, factory())

    def counter(self, name: str, **labels: Any) -> Counter:
        """Return (creating if needed) the counter ``name`` with ``labels``."""
        key = (name, tuple(sorted(labels.items())))
        instrument = self._counters.get(key)
        return instrument if instrument is not None else self._create(self._counters, key, Counter)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        """Return (creating if needed) the gauge ``name`` with ``labels``."""
        key = (name, tuple(sorted(labels.items())))
        instrument = self._gauges.get(key)
        return instrument if instrument is not None else self._create(self._gauges, key, Gauge)

    def histogram(self, name: str, **labels: Any) -> Histogram:
        """Return (creating if needed) the histogram ``name`` with ``labels``."""
        key = (name, tuple(sorted(labels.items())))
        instrument = self._histograms.get(key)
        return instrument if instrument is not None else self._create(self._histograms, key, Histogram)

    # -------------------------------------------------------------- inspection
    def iter_counters(self, prefix: str = "") -> Iterator[Tuple[str, Dict[str, Any], int]]:
        """Yield ``(name, labels, value)`` for every counter named ``prefix*``."""
        with self._lock:
            items = list(self._counters.items())
        for (name, labels), instrument in items:
            if name.startswith(prefix):
                yield name, dict(labels), instrument.value

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Return every instrument's current value, keyed by rendered name."""
        with self._lock:
            counters = list(self._counters.items())
            gauges = list(self._gauges.items())
            histograms = list(self._histograms.items())
        return {
            "counters": {
                _render_name(name, labels): instrument.value
                for (name, labels), instrument in sorted(counters, key=lambda item: item[0])
            },
            "gauges": {
                _render_name(name, labels): instrument.value
                for (name, labels), instrument in sorted(gauges, key=lambda item: item[0])
            },
            "histograms": {
                _render_name(name, labels): instrument.snapshot()
                for (name, labels), instrument in sorted(histograms, key=lambda item: item[0])
            },
        }

    def reset(self, prefix: str = "") -> None:
        """Drop every instrument whose name starts with ``prefix`` (all by default)."""
        with self._lock:
            for table in (self._counters, self._gauges, self._histograms):
                for key in [key for key in table if key[0].startswith(prefix)]:
                    del table[key]


#: The process-wide registry every instrumented module shares.
METRICS = MetricsRegistry()


def metrics_snapshot() -> Dict[str, Dict[str, Any]]:
    """Return the snapshot of the process-wide metrics registry."""
    return METRICS.snapshot()
