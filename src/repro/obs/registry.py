"""The metrics registry: named, tagged instruments with aggregation.

One registry per observed component (a cache manager, an index shard);
:meth:`MetricsRegistry.merge` folds many registries into a cluster-level
view (the broker sums its shards').  Instruments are identified by
``(name, tags)``; asking for the same identity twice returns the same
instrument, so hot paths can keep a reference and skip the lookup.
"""

from __future__ import annotations

from typing import Iterator

from repro.obs.instruments import Counter, Gauge, Histogram

__all__ = ["MetricsRegistry", "delta_counter"]

_TagKey = tuple[tuple[str, str], ...]


def _tag_key(tags: dict) -> _TagKey:
    if not tags:
        return ()
    return tuple(sorted((k, str(v)) for k, v in tags.items()))


class MetricsRegistry:
    """Registry of counters, gauges and histograms keyed by name + tags."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, _TagKey], Counter | Gauge | Histogram] = {}
        # Sorted-identity cache for items(): rebuilt only when an
        # instrument is created, so per-window timeline iteration skips
        # the full sort.
        self._sorted: list | None = None

    def __len__(self) -> int:
        return len(self._metrics)

    def _get_or_create(self, name: str, tags: dict, factory, kind: str):
        key = (name, _tag_key(tags))
        inst = self._metrics.get(key)
        if inst is None:
            inst = factory()
            self._metrics[key] = inst
            self._sorted = None
        elif inst.kind != kind:
            raise TypeError(
                f"metric {name!r} with tags {dict(tags)} already registered "
                f"as a {inst.kind}, not a {kind}"
            )
        return inst

    def counter(self, name: str, **tags) -> Counter:
        return self._get_or_create(name, tags, Counter, "counter")

    def gauge(self, name: str, merge_mode: str | None = None, **tags) -> Gauge:
        """A gauge at this identity.

        ``merge_mode`` fixes the cluster-merge semantics at creation
        ("sum" when omitted; see :class:`~repro.obs.instruments.Gauge`).
        Asking again with a conflicting mode raises.
        """
        gauge = self._get_or_create(
            name, tags, lambda: Gauge(merge_mode=merge_mode or "sum"), "gauge"
        )
        if merge_mode is not None and gauge.merge_mode != merge_mode:
            raise ValueError(
                f"gauge {name!r} with tags {dict(tags)} already registered "
                f"with merge_mode={gauge.merge_mode!r}, not {merge_mode!r}"
            )
        return gauge

    def histogram(self, name: str, lo: float = 0.5, growth: float = 1.04,
                  **tags) -> Histogram:
        return self._get_or_create(
            name, tags, lambda: Histogram(lo=lo, growth=growth), "histogram"
        )

    # -- iteration and export ------------------------------------------------

    def items(self) -> Iterator[tuple[str, dict, Counter | Gauge | Histogram]]:
        """Yield ``(name, tags, instrument)`` sorted by identity.

        The sorted view is cached between instrument creations; callers
        must treat the yielded tags dicts as read-only.
        """
        cache = self._sorted
        if cache is None:
            cache = self._sorted = [
                (name, dict(tag_key), inst)
                for (name, tag_key), inst in sorted(self._metrics.items())
            ]
        return iter(cache)

    def get(self, name: str, **tags):
        """The instrument at this identity, or None."""
        return self._metrics.get((name, _tag_key(tags)))

    def snapshot(self) -> dict:
        """A JSON-ready dump of every instrument."""
        metrics = []
        for name, tags, inst in self.items():
            entry = {"name": name, "tags": tags, "kind": inst.kind}
            entry.update(inst.snapshot())
            metrics.append(entry)
        return {"schema": "repro.obs.metrics/v1", "metrics": metrics}

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold ``other`` into this registry (counters/histograms sum,
        gauges follow their per-gauge merge mode — "sum" unless they
        opted into "last"/"max"/"min").  Returns self for chaining."""
        for (name, tag_key), inst in other._metrics.items():
            tags = dict(tag_key)
            if inst.kind == "counter":
                mine = self.counter(name, **tags)
            elif inst.kind == "gauge":
                mine = self.gauge(name, merge_mode=inst.merge_mode, **tags)
            else:
                mine = self.histogram(name, lo=inst.lo, growth=inst.growth,
                                      **tags)
            mine.merge(inst)
        return self


def delta_counter(registry: MetricsRegistry, name: str, **tags):
    """``advance(total)`` for a counter that follows a cumulative total
    kept elsewhere (device, kernel, stats, the observer's own rings).

    Each call moves the counter by the change since the previous one.
    It is created on the first non-zero delta (idle series never appear
    in dumps); a source reset below its last sample re-baselines.
    """
    counter: Counter | None = None
    last = 0

    def advance(total) -> None:
        nonlocal counter, last
        delta = total - last if total >= last else total
        last = total
        if delta:
            if counter is None:
                counter = registry.counter(name, **tags)
            counter.inc(delta)
    return advance
