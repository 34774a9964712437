"""Process-wide bounded result cache keyed by canonical content digests.

This is the memoization substrate of the verification-as-a-service spine: one
:class:`ResultCache` instance (:data:`RESULT_CACHE`) shared by the whole
process, keyed by the digests of :mod:`repro.hashing` and partitioned into
named *regions* so hit/miss/eviction statistics can be read per consumer:

* ``"denotation"`` — denotation sets of :func:`repro.semantics.denotational.denotation`;
* ``"loop-prefix"`` — while-loop prefix chains shared across schedulers *and* calls;
* ``"wp"`` — per-subterm wp/wlp transformer results of :mod:`repro.semantics.wp`;
* ``"prover"`` — per-subterm proof annotations of :mod:`repro.logic.prover`.

Keys are built from ``(node digest, options signature, postcondition digest)``
tuples (plus the register signature); because digest equality soundly implies
semantic equality (see :mod:`repro.hashing`), a cache hit can only substitute
a value computed from inputs equal to the requested ones up to the digest
quantization — i.e. results agree to the library tolerance ``ATOL``.

The cache is a bounded LRU: insertions beyond ``maxsize`` evict the least
recently used entry (eviction counted against the evictee's region).  All
operations take an internal lock and are safe under free-threaded use.

Counters live in a :class:`~repro.telemetry.metrics.MetricsRegistry` — the
process-wide cache publishes ``cache.hits{region=...}`` /
``cache.misses{region=...}`` / ``cache.evictions{region=...}`` into the shared
:data:`repro.telemetry.METRICS` registry, and :func:`cache_stats` is a view
over those counters (private :class:`ResultCache` instances get a private
registry so their statistics stay isolated).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Optional, Tuple

from .telemetry.metrics import METRICS, MetricsRegistry

__all__ = [
    "MISS",
    "ResultCache",
    "RESULT_CACHE",
    "cache_stats",
    "clear_result_cache",
    "configure_result_cache",
]

#: Sentinel returned by :meth:`ResultCache.lookup` on a miss, so ``None`` can
#: be cached as a legitimate value.
MISS = object()

#: Default capacity of the process-wide cache (entries, not bytes).
DEFAULT_MAXSIZE = 4096

#: Counter names the cache publishes into its metrics registry.
_COUNTER_NAMES = ("cache.hits", "cache.misses", "cache.evictions")


class ResultCache:
    """A bounded, thread-safe LRU cache with per-region counters.

    Parameters
    ----------
    maxsize:
        Maximum number of entries retained across all regions.
    registry:
        The :class:`MetricsRegistry` receiving the hit/miss/eviction counters.
        Defaults to a private registry; the process-wide :data:`RESULT_CACHE`
        uses the shared :data:`repro.telemetry.METRICS` so its counters show
        up in :func:`repro.telemetry.metrics_snapshot`.
    """

    def __init__(self, maxsize: int = DEFAULT_MAXSIZE, registry: Optional[MetricsRegistry] = None):
        self._data: "OrderedDict[Tuple[str, Hashable], Any]" = OrderedDict()
        self._lock = threading.Lock()
        self._maxsize = int(maxsize)
        self._enabled = True
        self._registry = registry if registry is not None else MetricsRegistry()

    # ------------------------------------------------------------------ access
    def lookup(self, region: str, key: Hashable):
        """Return the cached value for ``(region, key)`` or :data:`MISS`.

        A ``key`` of ``None`` means "uncacheable" (e.g. explicit schedulers in
        the options) and returns :data:`MISS` without touching the counters.
        """
        if key is None or not self._enabled:
            return MISS
        full_key = (region, key)
        with self._lock:
            if full_key in self._data:
                self._data.move_to_end(full_key)
                value = self._data[full_key]
                hit = True
            else:
                value = MISS
                hit = False
        # Counters have their own locks; update them outside the cache lock.
        if hit:
            self._registry.counter("cache.hits", region=region).inc()
            return value
        self._registry.counter("cache.misses", region=region).inc()
        return MISS

    def store(self, region: str, key: Hashable, value: Any) -> None:
        """Insert ``value`` under ``(region, key)``, evicting LRU entries if full."""
        if key is None or not self._enabled:
            return
        full_key = (region, key)
        evicted_regions = []
        with self._lock:
            self._data[full_key] = value
            self._data.move_to_end(full_key)
            while len(self._data) > self._maxsize:
                evicted_key, _ = self._data.popitem(last=False)
                evicted_regions.append(evicted_key[0])
        for evicted_region in evicted_regions:
            self._registry.counter("cache.evictions", region=evicted_region).inc()

    def get_or_set(self, region: str, key: Hashable, default: Any):
        """Return the cached value for ``(region, key)``, inserting ``default`` on a miss.

        The lookup and the insertion happen under a *single* lock hold, so
        concurrent callers cannot interleave duplicate inserts between a
        :meth:`lookup` and a :meth:`store`, and each call bumps exactly one of
        the hit/miss counters.  A ``key`` of ``None`` (uncacheable) returns
        ``default`` without touching the cache or the counters.
        """
        if key is None or not self._enabled:
            return default
        full_key = (region, key)
        evicted_regions = []
        with self._lock:
            if full_key in self._data:
                self._data.move_to_end(full_key)
                value = self._data[full_key]
                hit = True
            else:
                value = default
                self._data[full_key] = default
                hit = False
                while len(self._data) > self._maxsize:
                    evicted_key, _ = self._data.popitem(last=False)
                    evicted_regions.append(evicted_key[0])
        if hit:
            self._registry.counter("cache.hits", region=region).inc()
        else:
            self._registry.counter("cache.misses", region=region).inc()
        for evicted_region in evicted_regions:
            self._registry.counter("cache.evictions", region=evicted_region).inc()
        return value

    # -------------------------------------------------------------- management
    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry holding this cache's counters."""
        return self._registry

    @property
    def enabled(self) -> bool:
        """Whether lookups and insertions are currently active."""
        with self._lock:
            return self._enabled

    def stats(self) -> Dict[str, Any]:
        """Return a snapshot of size, capacity and per-region hit/miss/eviction counts.

        The per-region counts are a view over the cache's metrics registry
        (``cache.hits{region=...}`` …), so this is the same data a
        :func:`repro.telemetry.metrics_snapshot` reports for the process-wide
        cache — kept in the historical nested shape for compatibility.
        """
        counters: Dict[str, Dict[str, int]] = {}
        for name, labels, value in self._registry.iter_counters(prefix="cache."):
            region = labels.get("region")
            if region is None:
                continue
            field = name[len("cache."):]
            counters.setdefault(region, {})[field] = value
        with self._lock:
            size = len(self._data)
            maxsize = self._maxsize
            enabled = self._enabled
        return {
            "size": size,
            "maxsize": maxsize,
            "enabled": enabled,
            "regions": {
                region: {
                    "hits": fields.get("hits", 0),
                    "misses": fields.get("misses", 0),
                    "evictions": fields.get("evictions", 0),
                }
                for region, fields in sorted(counters.items())
            },
        }

    def clear(self, reset_counters: bool = True) -> None:
        """Drop every entry (and, by default, reset all counters)."""
        with self._lock:
            self._data.clear()
        if reset_counters:
            for name in _COUNTER_NAMES:
                self._registry.reset(prefix=name)

    def configure(self, maxsize: Optional[int] = None, enabled: Optional[bool] = None) -> None:
        """Adjust capacity and/or enablement; shrinking evicts LRU entries immediately."""
        evicted_regions = []
        with self._lock:
            if enabled is not None:
                self._enabled = bool(enabled)
            if maxsize is not None:
                self._maxsize = int(maxsize)
                while len(self._data) > self._maxsize:
                    evicted_key, _ = self._data.popitem(last=False)
                    evicted_regions.append(evicted_key[0])
        for evicted_region in evicted_regions:
            self._registry.counter("cache.evictions", region=evicted_region).inc()


#: The process-wide cache instance every consumer module shares.  Its counters
#: are published into the shared telemetry metrics registry.
RESULT_CACHE = ResultCache(registry=METRICS)


def cache_stats() -> Dict[str, Any]:
    """Return the statistics snapshot of the process-wide result cache."""
    return RESULT_CACHE.stats()


def clear_result_cache(reset_counters: bool = True) -> None:
    """Empty the process-wide result cache (and by default its counters)."""
    RESULT_CACHE.clear(reset_counters=reset_counters)


def configure_result_cache(maxsize: Optional[int] = None, enabled: Optional[bool] = None) -> None:
    """Reconfigure the process-wide result cache (capacity / on-off switch)."""
    RESULT_CACHE.configure(maxsize=maxsize, enabled=enabled)
