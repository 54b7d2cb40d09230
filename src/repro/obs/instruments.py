"""Typed metric instruments: counters, gauges and log-bucketed histograms.

The simulation measures everything in microseconds over ranges spanning
sub-microsecond DRAM probes to multi-millisecond HDD seeks, so the
:class:`Histogram` uses geometrically growing buckets: constant *relative*
resolution across five orders of magnitude at a few hundred sparse
buckets.  Percentile extraction interpolates within the bucket holding
the requested order statistic, so estimates land within one bucket width
of the exact ``np.percentile`` value (property-tested in
``tests/test_obs_instruments.py``).

Recording a sample is an append to the histogram's pending buffer;
:meth:`Histogram.fold`, which every reader calls first, moves the
buffer into the buckets.  This module is the only one that touches a
histogram's buckets, bucket deltas or pending samples.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from repro._hot import HOT

__all__ = ["Counter", "Gauge", "Histogram", "DEFAULT_PERCENTILES",
           "GAUGE_MERGE_MODES", "PENDING_CAP", "take_window_deltas"]

#: The percentile set every latency summary reports.
DEFAULT_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Samples a histogram holds pending before recording folds them in.
PENDING_CAP = 256

_INF = math.inf

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

    def snapshot(self) -> dict:
        return {"value": self.value}


#: Valid :class:`Gauge` merge modes.
GAUGE_MERGE_MODES = ("sum", "last", "max", "min")


class Gauge:
    """A point-in-time value (occupancy, utilization, queue depth).

    ``merge_mode`` declares how two readings of this gauge would
    combine; it is validated and written into every snapshot
    (``metrics.json``), and nothing in the package merges gauges.
    Occupancy-style gauges (bytes held, queue depth, free blocks) would
    add up, so ``"sum"`` is the default.  Ratio or projection gauges
    (write amplification, wear skew) have no natural sum; they declare
    ``"last"``, ``"max"`` or ``"min"``.
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

    def snapshot(self) -> dict:
        return {"value": self.value, "merge_mode": self.merge_mode}


class Histogram:
    """Log-bucketed distribution of non-negative samples.

    Bucket 0 holds ``[0, lo)``; bucket ``i >= 1`` holds
    ``[lo * growth**(i-1), lo * growth**i)``.  Counts live in a sparse
    dict, so the value range is unbounded at O(observed buckets) memory.
    ``growth=1.04`` keeps every bucket within 4% relative width — more
    than enough for latency percentiles, where run-to-run noise dwarfs it.

    Recording a sample appends it to a pending buffer; :meth:`fold`
    moves the buffer into the buckets, ``count``, ``sum``, ``min`` and
    ``max`` in sample order, and every reader folds first, so a reader
    sees exactly what recording each sample on arrival would have left.
    The fold is the only path that updates buckets.
    """

    __slots__ = ("lo", "growth", "_log_growth", "_bounds", "_counts",
                 "_pending", "_samples", "_count", "_sum", "_min", "_max",
                 "_room", "_refresh_at", "_threshold", "exemplar_sink")

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
        #: samples recorded since the last fold, in arrival order
        self._samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        #: Optional tail-exemplar capture, set by repro.obs.timeline.
        #: ExemplarStore.register: the sink a sample passing
        #: :attr:`exemplar_gate` is offered to.
        self.exemplar_sink = None
        # The gate, closed by default; _room is how many more samples the
        # buffer takes before record() must fold (the cap, or the count
        # at which the gate wants a refresh).
        self._refresh_at = math.inf
        self._threshold = math.inf
        self._room = PENDING_CAP

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
        # ``not`` also rejects NaN (an arbitrary bucket, a NaN ``sum``).
        if not 0.0 <= value < _INF:
            raise ValueError(
                f"histogram samples must be finite and non-negative, got {value}")
        HOT.histogram_records += 1
        samples = self._samples
        samples.append(value)
        if len(samples) >= self._room or value > self._threshold:
            self._spill(value)

    def _spill(self, value: float) -> None:
        """``record``'s slow path: fold, then offer ``value`` (the newest
        sample) to the exemplar sink if it passed the gate."""
        self.fold()
        if self._count >= self._refresh_at or value > self._threshold:
            self.exemplar_sink.offer(self, value)

    def record_many(self, values) -> None:
        for v in values:
            self.record(v)

    def appender(self):
        """The pending buffer's ``append``: a sample recorded without a
        Python frame.

        For an ungated histogram (no exemplar sink) only, and a caller
        that passes finite non-negative samples, counts them in
        ``HOT.histogram_records`` and calls :meth:`fold` before more
        than :data:`PENDING_CAP` of them are pending.
        """
        return self._samples.append

    def fold(self) -> None:
        """Move the pending samples into the buckets (and the drain's
        bucket deltas), ``count``, ``sum``, ``min`` and ``max``.

        In sample order: buckets keep first-seen insertion order and
        ``sum`` is plain in-order float addition (not the builtin
        ``sum``, which compensates on 3.12, nor numpy's pairwise
        reduce), so the result is bit for bit what recording each sample
        on arrival gave.
        """
        samples = self._samples
        if not samples:
            return
        bounds = self._bounds
        counts, deltas = self._counts, self._pending
        total, low, high = self._sum, self._min, self._max
        for v in samples:
            if v >= bounds[-1]:
                self._extend_bounds(v)
            b = bisect_right(bounds, v)
            counts[b] = counts.get(b, 0) + 1
            deltas[b] = deltas.get(b, 0) + 1
            total += v
            if v < low:
                low = v
            if v > high:
                high = v
        self._sum, self._min, self._max = total, low, high
        count = self._count = self._count + len(samples)
        samples.clear()
        room = self._refresh_at - count
        self._room = room if room < PENDING_CAP else PENDING_CAP

    @property
    def exemplar_gate(self) -> tuple[float, float]:
        """``(count, value)``: a sample is offered to :attr:`exemplar_sink`
        once the histogram's count reaches the first, or when it exceeds
        the second (a tie is not a tail).  Closed, ``(inf, inf)``, by
        default."""
        return (self._refresh_at, self._threshold)

    @exemplar_gate.setter
    def exemplar_gate(self, gate: tuple[float, float]) -> None:
        self._refresh_at, self._threshold = gate
        self._room = min(PENDING_CAP, self._refresh_at - self._count)

    @property
    def count(self) -> int:
        if self._samples:
            self.fold()
        return self._count

    @property
    def sum(self) -> float:
        if self._samples:
            self.fold()
        return self._sum

    @property
    def min(self) -> float:
        if self._samples:
            self.fold()
        return self._min

    @property
    def max(self) -> float:
        if self._samples:
            self.fold()
        return self._max

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
        return self._max

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
        if self._samples:
            self.fold()
        if self._count == 0:
            raise ValueError("empty histogram has no percentiles")
        rank = q / 100.0 * (self._count - 1)
        i0 = math.floor(rank)
        i1 = math.ceil(rank)
        items = sorted(self._counts.items()) if _items is None else _items
        v0 = self._order_stat(i0, items)
        v = v0 if i1 == i0 else v0 + (rank - i0) * (self._order_stat(i1, items) - v0)
        return min(max(v, self._min), self._max)

    def percentiles(self, qs=DEFAULT_PERCENTILES) -> tuple[float, ...]:
        self.fold()
        items = sorted(self._counts.items())
        return tuple(self.percentile(q, _items=items) for q in qs)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- aggregation ---------------------------------------------------------

    @classmethod
    def from_buckets(cls, buckets: dict, count: int, total: float,
                     lo: float = 0.5, growth: float = 1.04) -> "Histogram":
        """A histogram of ``count`` samples summing to ``total``, held in
        ``buckets`` (bucket index, as an int or its string, → samples),
        in their order.

        ``min``/``max`` are the occupied buckets' outer bounds, the
        closest the buckets know; the bucket deltas start empty.
        """
        h = cls(lo=lo, growth=growth)
        h._counts = {int(b): c for b, c in buckets.items()}
        h._count = count
        h._sum = total
        if h._counts:
            h._min = h.bucket_bounds(min(h._counts))[0]
            h._max = h.bucket_bounds(max(h._counts))[1]
        return h

    def merge(self, other: "Histogram") -> None:
        """Bucket-wise sum; both histograms must share a bucket layout."""
        if (self.lo, self.growth) != (other.lo, other.growth):
            raise ValueError(
                f"cannot merge histograms with different bucket layouts: "
                f"(lo={self.lo}, growth={self.growth}) vs "
                f"(lo={other.lo}, growth={other.growth})"
            )
        self.fold()
        other.fold()
        for b, c in other._counts.items():
            self._counts[b] = self._counts.get(b, 0) + c
            self._pending[b] = self._pending.get(b, 0) + c
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._room = min(PENDING_CAP, self._refresh_at - self._count)

    def take_bucket_deltas(self) -> dict[int, int]:
        """Drain the bucket increments since the previous drain.

        Single-consumer by design: the timeline recorder (at most one
        per registry) owns the drain.  Increments accumulate from
        construction, so the first drain equals the full bucket dict.
        """
        drained = take_window_deltas((self,))
        return drained[0][3] if drained else {}

    def snapshot(self) -> dict:
        self.fold()
        out = {
            "lo": self.lo,
            "growth": self.growth,
            "count": self._count,
            "sum": self._sum,
            "buckets": {str(b): c for b, c in sorted(self._counts.items())},
        }
        if self._count:
            out["min"] = self._min
            out["max"] = self._max
            for q, v in zip(DEFAULT_PERCENTILES, self.percentiles()):
                out[f"p{q:g}".replace(".", "")] = v
        return out


def take_window_deltas(hists) -> list[tuple[int, int, float, dict[int, int]]]:
    """Drain the bucket increments of many histograms in one call:
    ``(i, count, sum, deltas)`` for each ``hists[i]`` recorded into
    since the previous drain (none other), after its fold.

    The one drain: :meth:`Histogram.take_bucket_deltas` is this over one
    histogram.  How the timeline closes a window: a histogram's count
    moved exactly when its drain is non-empty, so the unchanged ones
    cost no call.
    """
    out = []
    for i, h in enumerate(hists):
        if h._samples:
            h.fold()
        if h._pending:
            out.append((i, h._count, h._sum, h._pending))
            h._pending = {}
    return out
