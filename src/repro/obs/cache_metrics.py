"""CacheEvents-bus subscriber that feeds a metrics registry.

Turns every admit/evict/flush/victim event into registry counters tagged
by tier, kind and reason, so policy behaviour — CBLRU window churn, TEV
discards, Section VI.C revalidations, Fig. 13 victim-search stages — is
quantifiable without touching cache internals.
"""

from __future__ import annotations

from repro.core.events import CacheEvents
from repro.obs.registry import MetricsRegistry, delta_counter

__all__ = ["CacheEventMetrics", "CacheStatsMetrics"]


class CacheEventMetrics:
    """Subscribes a registry to a :class:`~repro.core.events.CacheEvents` bus.

    Emitted series (all counters):

    * ``cache_admits_total{kind, level, reason}`` — ``reason`` is
      ``"insert"`` for plain admissions, ``"revalidate"`` for avoided
      SSD rewrites;
    * ``cache_evicts_total{kind, level, reason}`` — capacity / tev /
      expired / invalidate / ...;
    * ``cache_flushes_total{kind}`` and ``cache_flush_bytes_total{kind}``
      — physical SSD cache-file writes;
    * ``cache_l2_victims_total{kind, stage}`` — Fig. 11/13 victim-search
      stages.
    """

    def __init__(self, registry: MetricsRegistry, events: CacheEvents,
                 audit=None) -> None:
        self.registry = registry
        #: an enabled AuditLog mirrored right after each bump: one
        #: subscriber per hook does metrics, then audit (``finally``:
        #: on the bus a failing observer never starves the next).
        self.audit = audit
        # Counter refs cached per tag combination (flushes and victims
        # here, admits/evicts inside their observer): the (name, tags)
        # registry lookup is paid once per series, not per event.
        self._counters: dict[tuple, object] = {}
        self._unsubscribe = events.subscribe(
            on_admit=self._lifecycle("cache_admits_total", "insert",
                                     "on_admit"),
            on_evict=self._lifecycle("cache_evicts_total", "unspecified",
                                     "on_evict"),
            on_flush=self._on_flush,
            on_l2_victim=self._on_l2_victim,
        )

    def _lifecycle(self, metric: str, no_reason: str, hook: str):
        """The admit/evict observer: ``metric{kind, level, reason}``."""
        counters: dict[tuple, object] = {}
        registry = self.registry
        mirror = None if self.audit is None else getattr(self.audit, hook)

        def observe(event) -> None:
            try:
                reason = event.reason or no_reason
                key = (event.kind, event.level, reason)
                c = counters.get(key)
                if c is None:
                    c = counters[key] = registry.counter(
                        metric, kind=event.kind, level=event.level,
                        reason=reason)
                c.value += 1
            finally:
                if mirror is not None:
                    mirror(event)
        return observe

    def _on_flush(self, event) -> None:
        try:
            pair = self._counters.get(event.kind)
            if pair is None:
                pair = self._counters[event.kind] = (
                    self.registry.counter("cache_flushes_total",
                                          kind=event.kind),
                    self.registry.counter("cache_flush_bytes_total",
                                          kind=event.kind),
                )
            pair[0].value += 1
            pair[1].inc(event.nbytes)
        finally:
            if self.audit is not None:
                self.audit.on_flush(event)

    def _on_l2_victim(self, event) -> None:
        try:
            key = (event.kind, event.stage)
            c = self._counters.get(key)
            if c is None:
                c = self._counters[key] = self.registry.counter(
                    "cache_l2_victims_total", kind=event.kind,
                    stage=event.stage)
            c.value += 1
        finally:
            if self.audit is not None:
                self.audit.on_l2_victim(event)

    def close(self) -> None:
        self._unsubscribe()


class CacheStatsMetrics:
    """Delta bridge from :class:`~repro.core.stats.CacheStats` to counters.

    The stats object tracks lookup outcomes as plain attributes; this
    bridge advances registry counters by the delta at each
    :meth:`collect`, giving the timeline a per-window hit/lookup series:

    * ``cache_result_lookups_total{outcome=l1_hit|l2_hit|miss}``
    * ``cache_list_lookups_total{outcome=l1_hit|l2_hit|partial_hit|miss}``

    A stats reset (warmup exclusion calls ``CacheStats.reset()``) drops
    the attribute values below the last sample; the bridge re-baselines,
    counting only activity after the reset.
    """

    _SERIES = (
        ("cache_result_lookups_total", "l1_hit", "result_l1_hits"),
        ("cache_result_lookups_total", "l2_hit", "result_l2_hits"),
        ("cache_result_lookups_total", "miss", "result_misses"),
        ("cache_list_lookups_total", "l1_hit", "list_l1_hits"),
        ("cache_list_lookups_total", "l2_hit", "list_l2_hits"),
        ("cache_list_lookups_total", "partial_hit", "list_partial_hits"),
        ("cache_list_lookups_total", "miss", "list_misses"),
    )

    def __init__(self, registry: MetricsRegistry, stats) -> None:
        self.registry = registry
        self.stats = stats
        self._series = [(attr, delta_counter(registry, name, outcome=outcome))
                        for name, outcome, attr in self._SERIES]

    def collect(self) -> None:
        """Advance the counters to the stats object's current values."""
        stats = self.stats
        for attr, advance in self._series:
            advance(getattr(stats, attr))
