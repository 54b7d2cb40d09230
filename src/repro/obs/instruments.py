"""Typed metric instruments: counters, gauges and log-bucketed histograms.

The simulation measures everything in microseconds over ranges spanning
sub-microsecond DRAM probes to multi-millisecond HDD seeks, so the
:class:`Histogram` uses geometrically growing buckets: constant *relative*
resolution across five orders of magnitude at a few hundred sparse
buckets.  Percentile extraction interpolates within the bucket holding
the requested order statistic, so estimates land within one bucket width
of the exact ``np.percentile`` value (property-tested in
``tests/test_obs_instruments.py``).
"""

from __future__ import annotations

import math
from bisect import bisect_right

from repro._hot import HOT

__all__ = ["Counter", "Gauge", "Histogram", "DEFAULT_PERCENTILES",
           "GAUGE_MERGE_MODES"]

#: The percentile set every latency summary reports.
DEFAULT_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: The exemplar gate of a histogram nothing captures from.
_CLOSED_GATE = (math.inf, math.inf)

#: One exact boundary table per bucket layout ``(lo, growth)``, shared by
#: every histogram of that layout: extending it is deterministic, so a
#: table one histogram grew serves the next one as it would have grown it.
_BOUNDS: dict[tuple[float, float], list[float]] = {}


class Counter:
    """A monotonically increasing count (events, bytes, queries)."""

    __slots__ = ("value",)

    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int | float = 1) -> None:
        if n < 0:
            raise ValueError(f"counters only go up, got {n}")
        self.value += n

    def merge(self, other: "Counter") -> None:
        """Key-wise aggregation: counts from another registry add up."""
        self.value += other.value

    def snapshot(self) -> dict:
        return {"value": self.value}


#: Valid :class:`Gauge` cluster-merge modes.
GAUGE_MERGE_MODES = ("sum", "last", "max", "min")


class Gauge:
    """A point-in-time value (occupancy, utilization, queue depth).

    ``merge_mode`` decides what a cluster-level merge means for this
    gauge.  Occupancy-style gauges (bytes held, queue depth, free
    blocks) add up across shards, so ``"sum"`` is the default.  Ratio
    or projection gauges (write amplification, wear skew) have no
    natural sum; they opt into ``"last"`` (the merged-in reading wins),
    ``"max"`` or ``"min"``.
    """

    __slots__ = ("value", "merge_mode")

    kind = "gauge"

    def __init__(self, merge_mode: str = "sum") -> None:
        if merge_mode not in GAUGE_MERGE_MODES:
            raise ValueError(
                f"unknown gauge merge mode {merge_mode!r}; "
                f"choose from {GAUGE_MERGE_MODES}"
            )
        self.value = 0.0
        self.merge_mode = merge_mode

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def merge(self, other: "Gauge") -> None:
        """Fold another shard's reading in, per this gauge's merge mode."""
        if self.merge_mode == "sum":
            self.value += other.value
        elif self.merge_mode == "last":
            self.value = other.value
        elif self.merge_mode == "max":
            self.value = max(self.value, other.value)
        else:  # "min"
            self.value = min(self.value, other.value)

    def snapshot(self) -> dict:
        return {"value": self.value, "merge_mode": self.merge_mode}


class Histogram:
    """Log-bucketed distribution of non-negative samples.

    Bucket 0 holds ``[0, lo)``; bucket ``i >= 1`` holds
    ``[lo * growth**(i-1), lo * growth**i)``.  Counts live in a sparse
    dict, so the value range is unbounded at O(observed buckets) memory.
    ``growth=1.04`` keeps every bucket within 4% relative width — more
    than enough for latency percentiles, where run-to-run noise dwarfs it.
    """

    __slots__ = ("lo", "growth", "_log_growth", "_bounds", "_counts",
                 "count", "sum", "min", "max", "exemplar_sink",
                 "exemplar_gate", "_pending")

    kind = "histogram"

    def __init__(self, lo: float = 0.5, growth: float = 1.04) -> None:
        if lo <= 0:
            raise ValueError("lo must be positive")
        if growth <= 1.0:
            raise ValueError("growth must exceed 1.0")
        self.lo = lo
        self.growth = growth
        self._log_growth = math.log(growth)
        # Exact bucket-boundary table: _bounds[i] is the smallest float
        # whose reference bucket index is i+1, so bisect_right gives the
        # same index as the log formula (see bucket_index).  Grown lazily
        # as larger samples arrive, and shared per layout (_BOUNDS).
        self._bounds: list[float] = _BOUNDS.setdefault((lo, growth), [lo])
        self._counts: dict[int, int] = {}
        # Bucket increments since the last take_bucket_deltas() drain —
        # lets the timeline recorder emit per-window sub-histograms in
        # O(changed buckets) instead of re-diffing the whole dict.
        self._pending: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        #: Optional tail-exemplar capture, set by repro.obs.timeline.
        #: ExemplarStore.register: the sink, and the gate ``(count,
        #: value)`` a sample must reach (either) to be offered to it —
        #: closed by default, so the hot path is two compares.
        self.exemplar_sink = None
        self.exemplar_gate = _CLOSED_GATE

    # -- recording -----------------------------------------------------------

    def _reference_bucket_index(self, value: float) -> int:
        """The original log-formula index — the oracle the boundary
        table is built against (and that the property suite pins
        :meth:`bucket_index` to)."""
        if value < self.lo:
            return 0
        return 1 + int(math.log(value / self.lo) / self._log_growth)

    def _extend_bounds(self, value: float) -> None:
        """Grow the boundary table until it covers ``value``.

        Each new boundary starts at the analytic ``lo * growth**(i-1)``
        and is then walked by ulps (``math.nextafter``) to the exact
        float where the reference formula first reaches the new index —
        so bisecting the table reproduces the formula bit for bit,
        including its floating-point rounding at bucket edges.
        """
        bounds = self._bounds
        ref = self._reference_bucket_index
        while bounds[-1] <= value:
            idx = len(bounds) + 1  # reference index just past the new boundary
            c = self.lo * self.growth ** (idx - 1)
            if ref(c) >= idx:
                while True:
                    p = math.nextafter(c, 0.0)
                    if p > bounds[-1] and ref(p) >= idx:
                        c = p
                    else:
                        break
            else:
                while ref(c) < idx:
                    c = math.nextafter(c, math.inf)
            bounds.append(c)

    def bucket_index(self, value: float) -> int:
        bounds = self._bounds
        if value >= bounds[-1]:
            if value == math.inf:
                # The formula's behaviour for inf (OverflowError from
                # int(inf)) is part of the contract; the table can't
                # cover it.
                return self._reference_bucket_index(value)
            self._extend_bounds(value)
            bounds = self._bounds
        return bisect_right(bounds, value)

    def bucket_bounds(self, index: int) -> tuple[float, float]:
        """The ``[lower, upper)`` range of one bucket."""
        if index <= 0:
            return (0.0, self.lo)
        return (self.lo * self.growth ** (index - 1),
                self.lo * self.growth ** index)

    def bucket_width_at(self, value: float) -> float:
        lo, hi = self.bucket_bounds(self.bucket_index(value))
        return hi - lo

    def record(self, value: float) -> None:
        # ``not >=`` also rejects NaN (an arbitrary bucket, a NaN ``sum``).
        if not value >= 0:
            raise ValueError(f"histogram samples must be non-negative, got {value}")
        HOT.histogram_records += 1
        bounds = self._bounds
        # bucket_index, minus its frame when the table already covers value
        b = (bisect_right(bounds, value) if value < bounds[-1]
             else self.bucket_index(value))
        self._counts[b] = self._counts.get(b, 0) + 1
        self._pending[b] = self._pending.get(b, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        gate = self.exemplar_gate
        if self.count >= gate[0] or value >= gate[1]:
            self.exemplar_sink.offer(self, value)

    def record_many(self, values) -> None:
        for v in values:
            self.record(v)

    # -- percentile extraction -----------------------------------------------

    def _order_stat(self, index: int, items: list[tuple[int, int]]) -> float:
        """Estimate the ``index``-th smallest sample (0-based).

        ``items`` is the bucket dict sorted by index — passed in so one
        sort serves every order statistic of a percentile batch.
        """
        remaining = index
        for b, c in items:
            if remaining < c:
                lo, hi = self.bucket_bounds(b)
                frac = (remaining + 0.5) / c
                return lo + frac * (hi - lo)
            remaining -= c
        return self.max

    def percentile(self, q: float, *,
                   _items: list[tuple[int, int]] | None = None) -> float:
        """The q-th percentile, within one bucket width of the exact value.

        Matches ``np.percentile``'s linear interpolation between order
        statistics, with each order statistic located by interpolating
        inside its bucket; the estimate is clamped to the observed
        ``[min, max]``.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            raise ValueError("empty histogram has no percentiles")
        rank = q / 100.0 * (self.count - 1)
        i0 = math.floor(rank)
        i1 = math.ceil(rank)
        items = sorted(self._counts.items()) if _items is None else _items
        v0 = self._order_stat(i0, items)
        v = v0 if i1 == i0 else v0 + (rank - i0) * (self._order_stat(i1, items) - v0)
        return min(max(v, self.min), self.max)

    def percentiles(self, qs=DEFAULT_PERCENTILES) -> tuple[float, ...]:
        items = sorted(self._counts.items())
        return tuple(self.percentile(q, _items=items) for q in qs)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- aggregation ---------------------------------------------------------

    def merge(self, other: "Histogram") -> None:
        """Bucket-wise sum; both histograms must share a bucket layout."""
        if (self.lo, self.growth) != (other.lo, other.growth):
            raise ValueError(
                f"cannot merge histograms with different bucket layouts: "
                f"(lo={self.lo}, growth={self.growth}) vs "
                f"(lo={other.lo}, growth={other.growth})"
            )
        for b, c in other._counts.items():
            self._counts[b] = self._counts.get(b, 0) + c
            self._pending[b] = self._pending.get(b, 0) + c
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def take_bucket_deltas(self) -> dict[int, int]:
        """Drain the bucket increments since the previous drain.

        Single-consumer by design: the timeline recorder (at most one
        per registry) owns the drain.  Increments accumulate from
        construction, so the first drain equals the full bucket dict.
        """
        out = self._pending
        self._pending = {}
        return out

    def snapshot(self) -> dict:
        out = {
            "lo": self.lo,
            "growth": self.growth,
            "count": self.count,
            "sum": self.sum,
            "buckets": {str(b): c for b, c in sorted(self._counts.items())},
        }
        if self.count:
            out["min"] = self.min
            out["max"] = self.max
            for q, v in zip(DEFAULT_PERCENTILES, self.percentiles()):
                out[f"p{q:g}".replace(".", "")] = v
        return out
