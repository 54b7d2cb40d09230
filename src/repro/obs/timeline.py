"""Windowed time series over the simulated run: the timeline recorder.

Every metric the registry holds is an end-of-run aggregate; the
phenomena the paper argues about are *temporal* — SSD cache warmup
before CBLRU's split pays off, write-amplification spikes when the
Fig. 13 staged victim search degrades, hit-ratio drift as the query
mix shifts.  :class:`TimelineRecorder` samples every registry
instrument into fixed-width virtual-clock windows and produces true
time series from the same counters the end-of-run report uses:

* **counters** are recorded as per-window *deltas*, so the deltas of
  any counter sum exactly to its cumulative end-of-run value;
* **histograms** are recorded as per-window *sub-histograms* (bucket-
  wise deltas of the cumulative log-bucketed counts), so merging the
  sub-histograms bucket-wise reproduces the run-level histogram;
* **gauges** are sampled at each window close (recorded when changed).

Windows are closed *lazily*: the recorder checks the clock at each
:meth:`tick` (the cache manager ticks once per query) and closes every
window whose right edge has passed, attributing everything recorded
since the previous close to the closing window.  Activity is therefore
quantized at query granularity — a query's samples land in the window
containing its completion time — while the sum-over-windows identities
above hold exactly.  Windows with no activity are skipped (*sparse*);
retained records live in a bounded ring (``retain``), and streaming
mode writes each window to ``timeline.jsonl`` the moment it closes.

Timeline JSONL schema (``repro.obs.timeline/v1``), one object per line::

    {"type": "header", "schema": "repro.obs.timeline/v1", "window_us": 50000.0}
    {"type": "window", "window": 3, "start_us": 150000.0, "end_us": 200000.0,
     "counters": {"queries_total{situation=S1}": 12, ...},
     "gauges": {"flash_write_amplification{device=ssd-cache}": 1.31, ...},
     "histograms": {"stage_latency_us{stage=l2}":
                    {"count": 5, "sum": 123.4, "lo": 0.5, "growth": 1.04,
                     "buckets": {"17": 3, "18": 2}}, ...},
     "derived": {"queries": 12, "hit_ratio": 0.81, "p99_response_us": ...}}
    {"type": "exemplar", "metric": "query_latency_us{situation=S8}",
     "value_us": 5321.0, "query_id": 17, "span_id": 412, "window": 3,
     "t_us": 151234.5}
    {"type": "footer", "windows": 42, "dropped_windows": 0, ...}

**Exemplars** answer *why was this sample slow?*: an
:class:`ExemplarStore` hooks ``Histogram.record`` (via the instrument's
``exemplar_sink``) and captures ``(query_id, span_id, window)`` for
samples landing above a configurable percentile of their own histogram,
so ``repro explain --query`` can chain a tail latency to its tracer
span and the audit-trail decisions made inside it.

The **steady-state detector** (:func:`steady_state_window`) is a
sliding-window mean-stability test on the windowed hit ratio; the bench
harness uses it to exclude cache warmup from ``BENCH_*.json``
measurements.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from repro.obs._jsonl import JsonlWriter, read_generations, write_jsonl
from repro.obs.instruments import Histogram
from repro.obs.registry import MetricsRegistry

__all__ = [
    "TIMELINE_SCHEMA",
    "TimelineRecorder",
    "Timeline",
    "Exemplar",
    "ExemplarStore",
    "series_key",
    "parse_series_key",
    "derive_window",
    "merge_windows",
    "sub_histogram",
    "steady_state_window",
    "window_point",
    "window_series",
    "load_timeline_jsonl",
    "validate_timeline_jsonl",
    "sparkline",
]

TIMELINE_SCHEMA = "repro.obs.timeline/v1"

#: Derived per-window series every consumer can rely on (when their
#: source instruments exist): see :func:`derive_window`.
DERIVED_SERIES = ("queries", "hit_ratio", "p50_response_us",
                  "p99_response_us", "p999_response_us", "write_amp",
                  "erases", "queue_depth", "wait_fraction")


def series_key(name: str, tags: dict) -> str:
    """``name{k=v,...}`` with sorted tags; just ``name`` when untagged."""
    if not tags:
        return name
    body = ",".join(f"{k}={v}" for k, v in sorted(tags.items()))
    return f"{name}{{{body}}}"


def parse_series_key(key: str) -> tuple[str, dict]:
    """Inverse of :func:`series_key`."""
    if "{" not in key:
        return key, {}
    name, _, body = key.partition("{")
    tags = {}
    for pair in body.rstrip("}").split(","):
        if pair:
            k, _, v = pair.partition("=")
            tags[k] = v
    return name, tags


# ---------------------------------------------------------------------------
# Exemplars
# ---------------------------------------------------------------------------

class Exemplar(NamedTuple):
    """One tail sample worth explaining: value + the trail back to it."""

    metric: str
    value_us: float
    query_id: int | None
    span_id: int | None
    window: int
    t_us: float

    def to_dict(self) -> dict:
        return {"type": "exemplar", **self._asdict()}


class ExemplarStore:
    """Captures tail samples from registered histograms.

    A histogram registered via :meth:`register` gets this store as its
    ``exemplar_sink``: every :meth:`~repro.obs.instruments.Histogram.
    record` above the ``threshold_q``-th percentile of *that* histogram
    captures the ambient :attr:`context` (query id, span id, timeline
    window, time) its owner assigns.  The percentile threshold is cached per
    histogram and refreshed as the distribution grows, so the hot path
    is one comparison; the store itself is a bounded ring
    (``capacity``), counting what it drops.
    """

    def __init__(self, threshold_q: float = 99.0, min_count: int = 64,
                 capacity: int = 512) -> None:
        if not 0.0 < threshold_q < 100.0:
            raise ValueError("threshold_q must be in (0, 100)")
        self.threshold_q = threshold_q
        self.min_count = min_count
        self.exemplars: deque[Exemplar] = deque(maxlen=capacity)
        self.dropped = 0
        self._labels: dict[int, str] = {}
        self._thresholds: dict[int, tuple[int, float]] = {}
        #: ``(query_id, span_id, window, t_us)`` of the samples offered next
        self.context: tuple[int | None, int | None, int, float] = (
            None, None, 0, 0.0)

    def register(self, hist: Histogram, label: str) -> None:
        """Attach this store to ``hist`` as its exemplar sink."""
        hist.exemplar_sink = self
        self._labels[id(hist)] = label

    def offer(self, hist: Histogram, value: float) -> None:
        """Called by ``Histogram.record``; captures tail samples."""
        if hist.count < self.min_count:
            return
        hid = id(hist)
        cached = self._thresholds.get(hid)
        if cached is None or hist.count >= cached[0] + max(64, cached[0] // 2):
            cached = (hist.count, hist.percentile(self.threshold_q))
            self._thresholds[hid] = cached
        if value < cached[1]:
            return
        qid, span_id, window, t_us = self.context
        if len(self.exemplars) == self.exemplars.maxlen:
            self.dropped += 1
        self.exemplars.append(Exemplar(
            metric=self._labels.get(hid, "histogram"),
            value_us=value,
            query_id=qid,
            span_id=span_id,
            window=window,
            t_us=t_us,
        ))

    def to_dicts(self) -> list[dict]:
        return [e.to_dict() for e in self.exemplars]


# ---------------------------------------------------------------------------
# The recorder
# ---------------------------------------------------------------------------

class TimelineRecorder:
    """Samples a registry into fixed-width virtual-clock windows.

    Call :meth:`tick` at unit-of-work boundaries (the manager ticks
    once per query, before recording the query's own samples) and
    :meth:`finish` at the end of the run to close the final partial
    window.  ``collect`` is an optional callable sampled before every
    window close (the :class:`~repro.obs.telemetry.Telemetry` bundle
    passes its bridge-sampling ``collect`` so flash counters and cache
    hit/lookup counters are current per window).
    """

    def __init__(self, registry: MetricsRegistry, window_us: float,
                 clock=None, retain: int = 4096, collect=None,
                 exemplars: ExemplarStore | None = None) -> None:
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.registry = registry
        self.window_us = float(window_us)
        self.clock = clock
        self.collect = collect
        self.exemplars = exemplars
        self.windows: deque[dict] = deque(maxlen=retain)
        self.dropped_windows = 0
        self.emitted = 0
        self._open = 0
        self._finished = False
        #: the :class:`JsonlWriter` once streaming (kept after it closes)
        self._stream: JsonlWriter | None = None
        self._callbacks: list = []
        # [series key, instrument, value at last close] rows per kind, in
        # registry order; rebuilt when the append-only registry has grown.
        self._by_kind: tuple[list, list, list] = ([], [], [])
        self._planned = 0

    # -- streaming -----------------------------------------------------------

    @property
    def rotations(self) -> int:
        """Times the streamed file was rotated (older windows left disk)."""
        return self._stream.rotations if self._stream is not None else 0

    def _header(self) -> dict:
        return {"type": "header", "schema": TIMELINE_SCHEMA,
                "window_us": self.window_us}

    def open_stream(self, path, max_windows: int | None = None) -> None:
        """Write windows to ``path`` as they close (header first).

        ``max_windows`` bounds on-disk growth for long live runs: once
        that many windows sit in the file, it is rotated to
        ``<path>.1`` (replacing any previous rotation) and the stream
        continues in a fresh file, so at most two generations — about
        ``2 * max_windows`` windows — are ever on disk.
        :func:`load_timeline_jsonl` reads the rotation back in order.
        """
        if self._stream is not None:
            raise RuntimeError("timeline is already streaming")
        if max_windows is not None and max_windows < 1:
            raise ValueError("max_windows must be >= 1")
        self._stream = JsonlWriter(path, header=self._header(),
                                   max_records=max_windows)
        for rec in self.windows:
            if "derived" not in rec:
                rec["derived"] = derive_window(rec)
            self._stream.write(rec)

    # -- window callbacks ----------------------------------------------------

    def add_window_callback(self, fn) -> None:
        """Call ``fn(record)`` the moment each non-sparse window closes.

        This is the incremental seam the streaming SLO evaluator and the
        flight recorder hang off: the record passed is the exact dict
        that lands in :attr:`windows` (and on disk when streaming),
        ``derived`` block included, so per-window verdicts computed in
        the callback provably agree with post-hoc evaluation over the
        saved file.  Callbacks observe — mutating the record corrupts
        the stream.
        """
        self._callbacks.append(fn)

    # -- recording -----------------------------------------------------------

    def tick(self) -> int:
        """Close every window whose right edge the clock has passed;
        returns the index of the window the clock is in."""
        idx = int(self.clock.now_us // self.window_us)
        if idx > self._open:
            self._close_open_window()
            self._open = idx
        return idx

    def finish(self) -> None:
        """Close the final partial window and the stream (idempotent)."""
        if self._finished:
            return
        self._finished = True
        self._close_open_window()
        for rec in self.windows:
            if "derived" not in rec:
                rec["derived"] = derive_window(rec)
        if self._stream is not None:
            for rec in self._trailer():
                self._stream.write_trailer(rec)
            self._stream.close()

    def _trailer(self) -> list[dict]:
        """What follows the windows: the exemplars, then the footer."""
        footer = {"type": "footer", "windows": self.emitted,
                  "dropped_windows": self.dropped_windows}
        if self.rotations:
            footer["rotated"] = self.rotations
        if self.exemplars is None:
            return [footer]
        footer["exemplars"] = len(self.exemplars.exemplars)
        footer["dropped_exemplars"] = self.exemplars.dropped
        return self.exemplars.to_dicts() + [footer]

    def _close_open_window(self) -> None:
        if self.collect is not None:
            self.collect()
        if len(self.registry) != self._planned:
            start = {"counter": 0, "gauge": None, "histogram": (0, 0.0)}
            seen = {row[0]: row[2] for rows in self._by_kind for row in rows}
            rows = [[key := series_key(name, tags), inst,
                     seen.get(key, start[inst.kind])]
                    for name, tags, inst in self.registry.items()]
            self._by_kind = tuple([row for row in rows if row[1].kind == kind]
                                  for kind in start)
            self._planned = len(rows)
        # Only series that moved since the previous close are recorded.
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        hists: dict[str, dict] = {}
        for row in self._by_kind[0]:
            value = row[1].value
            if value != row[2]:
                counters[row[0]] = value - row[2]
                row[2] = value
        for row in self._by_kind[1]:
            value = row[1].value
            if value != row[2]:
                gauges[row[0]] = row[2] = value
        for row in self._by_kind[2]:
            inst = row[1]
            prev_c, prev_s = row[2]
            if inst.count != prev_c:
                delta_b = inst.take_bucket_deltas()
                hists[row[0]] = {
                    "count": inst.count - prev_c,
                    "sum": inst.sum - prev_s,
                    "lo": inst.lo,
                    "growth": inst.growth,
                    "buckets": {str(b): delta_b[b] for b in sorted(delta_b)},
                }
                row[2] = (inst.count, inst.sum)
        if not (counters or gauges or hists):
            return  # sparse: nothing happened in this window
        rec = {
            "type": "window",
            "window": self._open,
            "start_us": self._open * self.window_us,
            "end_us": (self._open + 1) * self.window_us,
            "counters": counters,
            "gauges": gauges,
            "histograms": hists,
        }
        stream = self._stream
        if stream is not None and stream.closed:
            stream = None  # finished: later windows are only retained
        if stream is not None or self._callbacks:
            # Streamed records leave the process now (and callbacks see
            # them now), so they must carry their derived block; retained
            # records defer derivation to finish() — pure post-processing
            # of the window's own deltas, with no reason to bill it to
            # the serving loop.
            rec["derived"] = derive_window(rec)
        self.emitted += 1
        if len(self.windows) == self.windows.maxlen:
            self.dropped_windows += 1
        self.windows.append(rec)
        if stream is not None:
            stream.write(rec)
        for cb in self._callbacks:
            cb(rec)

    # -- export --------------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write the timeline to ``path``; returns the window count.

        In streaming mode the windows are already on disk: the stream is
        finalized (via :meth:`finish`) and, when ``path`` is another
        file, the streamed generation(s) are copied there.
        """
        self.finish()
        if self._stream is not None:
            self._stream.export_to(path)
            return self.emitted
        write_jsonl(path, chain(self.windows, self._trailer()),
                    header=self._header())
        return len(self.windows)


# ---------------------------------------------------------------------------
# Derived series
# ---------------------------------------------------------------------------

def sub_histogram(entry: dict) -> Histogram:
    """Reconstruct a :class:`Histogram` from a sub-histogram record.

    ``min``/``max`` are approximated by the occupied buckets' bounds,
    so percentile estimates stay within one bucket width of the values
    a live per-window histogram would have produced.
    """
    h = Histogram(lo=entry.get("lo", 0.5), growth=entry.get("growth", 1.04))
    buckets = {int(b): c for b, c in entry["buckets"].items()}
    h._counts = buckets
    h.count = entry["count"]
    h.sum = entry["sum"]
    if buckets:
        h.min = h.bucket_bounds(min(buckets))[0]
        h.max = h.bucket_bounds(max(buckets))[1]
    return h


#: Metric names the derived block is computed from.
_DERIVED_SOURCES = frozenset((
    "queries_total", "cache_result_lookups_total", "cache_list_lookups_total",
    "flash_host_page_writes_total", "flash_gc_page_writes_total",
    "flash_erases_total", "blame_wait_us_total", "blame_service_us_total",
    "queue_depth", "cache_write_buffer_entries", "query_latency_us"))


@lru_cache(maxsize=4096)
def _series_role(key: str) -> tuple[str, ...]:
    """The names :func:`derive_window` files the series at ``key`` under:
    its metric (plus ``<metric>:hits`` for a cache-hit outcome), or
    nothing.  Memoised: a run has a few dozen series keys and every
    window asks about the same ones."""
    name, tags = parse_series_key(key)
    if name not in _DERIVED_SOURCES:
        return ()
    if name.endswith("_lookups_total") and "{" not in key:
        return ()  # hit ratio is defined over the outcome-tagged series
    if tags.get("outcome") in ("l1_hit", "l2_hit"):
        return name, name + ":hits"
    return (name,)


def _by_metric(mapping: dict) -> dict[str, list]:
    """One pass over a window's counters, gauges or sub-histograms: each
    value filed under the metric(s) it feeds."""
    filed: dict[str, list] = {}
    for key, v in mapping.items():
        for name in _series_role(key):
            if name in filed:
                filed[name].append(v)
            else:
                filed[name] = [v]
    return filed


def derive_window(rec: dict) -> dict:
    """The standard derived series for one window record.

    Computed from the window's own deltas; series whose source
    instruments are absent are simply omitted.  The one implementation,
    used at window close and over loaded files alike.
    """
    counters = _by_metric(rec.get("counters", {})).get
    gauges = _by_metric(rec.get("gauges", {}))
    out: dict = {}

    queries = sum(counters("queries_total", ()))
    if queries:
        out["queries"] = queries

    hits = lookups = 0.0
    for name in ("cache_result_lookups_total", "cache_list_lookups_total"):
        for v in counters(name, ()):
            lookups += v
        for v in counters(name + ":hits", ()):
            hits += v
    if lookups:
        out["hit_ratio"] = hits / lookups

    # Bucket deltas are summed first: one histogram rebuilt per window.
    entries = _by_metric(rec.get("histograms", {})).get("query_latency_us")
    if entries:
        count, buckets = 0, {}
        for e in entries:
            if (e.get("lo", 0.5) != entries[0].get("lo", 0.5)
                    or e.get("growth", 1.04) != entries[0].get("growth", 1.04)):
                raise ValueError("cannot merge sub-histograms with "
                                 "different bucket layouts")
            count += e["count"]
            for b, c in e["buckets"].items():
                buckets[b] = buckets.get(b, 0) + c
        if count:
            merged = sub_histogram(
                dict(entries[0], count=count, buckets=buckets))
            (out["p50_response_us"], out["p99_response_us"],
             out["p999_response_us"]) = merged.percentiles((50.0, 99.0, 99.9))

    host = sum(counters("flash_host_page_writes_total", ()))
    if host:
        out["write_amp"] = (
            host + sum(counters("flash_gc_page_writes_total", ()))) / host

    erases = sum(counters("flash_erases_total", ()))
    if erases:
        out["erases"] = erases

    depth = None
    for name in ("queue_depth", "cache_write_buffer_entries"):
        if name in gauges:
            matched = sum(gauges[name])
            depth = matched if depth is None else depth + matched
    if depth is not None:
        out["queue_depth"] = depth

    wait = sum(counters("blame_wait_us_total", ()))
    service = sum(counters("blame_service_us_total", ()))
    if wait + service > 0:
        out["wait_fraction"] = wait / (wait + service)
    return out


def merge_windows(windows, start_window: int | None = None) -> dict:
    """Fold window records into one aggregate record.

    Counters sum, sub-histograms merge bucket-wise, gauges keep the
    last observed reading.  ``start_window`` drops windows before it
    (how the bench harness excludes warmup).  Returns a record-shaped
    dict whose ``histograms`` values are :class:`Histogram` instances.
    """
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    hists: dict[str, Histogram] = {}
    first = last = None
    for rec in windows:
        if rec.get("type", "window") != "window":
            continue
        if start_window is not None and rec["window"] < start_window:
            continue
        first = rec["window"] if first is None else first
        last = rec["window"]
        for key, v in rec.get("counters", {}).items():
            counters[key] = counters.get(key, 0) + v
        for key, v in rec.get("gauges", {}).items():
            gauges[key] = v
        for key, entry in rec.get("histograms", {}).items():
            h = sub_histogram(entry)
            if key in hists:
                hists[key].merge(h)
            else:
                hists[key] = h
    return {"counters": counters, "gauges": gauges, "histograms": hists,
            "first_window": first, "last_window": last}


def window_point(rec: dict, series: str) -> tuple[int, float] | None:
    """``(window, value)`` of one derived (or raw) series in one record.

    Falls back to raw counters/gauges when ``series`` is not a derived
    one; None when the record carries no data for the series.
    """
    if rec.get("type", "window") != "window":
        return None
    derived = rec.get("derived") or derive_window(rec)
    v = derived.get(series)
    if v is None:
        for mapping in (rec.get("counters", {}), rec.get("gauges", {})):
            if series in mapping:
                v = mapping[series]
                break
    if v is None:
        return None
    return rec["window"], v


def window_series(windows, series: str) -> list[tuple[int, float]]:
    """``(window, value)`` points for one derived (or raw) series."""
    return [pt for rec in windows
            if (pt := window_point(rec, series)) is not None]


# ---------------------------------------------------------------------------
# Steady-state detection
# ---------------------------------------------------------------------------

def steady_state_window(windows, series: str = "hit_ratio", k: int = 5,
                        rel_tol: float = 0.05,
                        abs_tol: float = 0.02) -> int | None:
    """Earliest window index where ``series`` is mean-stable.

    The rule (the one the bench harness applies): slide a window of
    ``k`` consecutive observations over the series; the run is steady
    from the first position whose spread (max - min) is within
    ``max(abs_tol, rel_tol * |mean|)``.  Returns None when the series
    never settles (or has fewer than ``k`` observations).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    pts = window_series(windows, series)
    for i in range(len(pts) - k + 1):
        chunk = [v for _, v in pts[i:i + k]]
        mean = sum(chunk) / k
        if max(chunk) - min(chunk) <= max(abs_tol, rel_tol * abs(mean)):
            return pts[i][0]
    return None


# ---------------------------------------------------------------------------
# Loading and validation
# ---------------------------------------------------------------------------

@dataclass
class Timeline:
    """A parsed ``timeline.jsonl``: header + windows + exemplars.

    ``torn_tail`` counts records lost to a mid-write cut (a live run
    killed mid-line); the loaders skip such a tail rather than raise.
    """

    window_us: float
    windows: list[dict]
    exemplars: list[dict]
    footer: dict | None = None
    torn_tail: int = 0

    def series(self, name: str) -> list[tuple[int, float]]:
        return window_series(self.windows, name)

    def steady_state(self, **kw) -> int | None:
        return steady_state_window(self.windows, **kw)


def load_timeline_jsonl(path) -> Timeline:
    """Load and schema-check a timeline file.

    When the stream was rotated (``open_stream(max_windows=...)``), the
    previous generation lives at ``<path>.1``; it is read first so the
    returned windows stay in order across the rotation boundary.
    """
    windows: list[dict] = []
    exemplars: list[dict] = []
    footer = None
    window_us = None
    parts, torn_total = read_generations(path)
    for part, records in parts:
        if not records:
            raise ValueError(f"{part}: empty timeline file")
        for pos, (lineno, rec) in enumerate(records):
            kind = rec.get("type")
            if pos == 0:
                if kind != "header" or rec.get("schema") != TIMELINE_SCHEMA:
                    raise ValueError(
                        f"{part}:{lineno}: not a {TIMELINE_SCHEMA} header")
                if window_us is None:
                    window_us = rec["window_us"]
                elif rec["window_us"] != window_us:
                    raise ValueError(
                        f"{part}:{lineno}: window_us changed across "
                        f"rotation")
            elif kind == "header":
                raise ValueError(
                    f"{part}:{lineno}: header after the first record")
            elif kind == "window":
                for fld in ("window", "start_us", "end_us", "counters",
                            "gauges", "histograms"):
                    if fld not in rec:
                        raise ValueError(
                            f"{part}:{lineno}: window missing {fld!r}")
                if rec["end_us"] <= rec["start_us"]:
                    raise ValueError(
                        f"{part}:{lineno}: window ends before it starts")
                if windows and rec["window"] <= windows[-1]["window"]:
                    raise ValueError(
                        f"{part}:{lineno}: window indices must increase")
                windows.append(rec)
            elif kind == "exemplar":
                for fld in ("metric", "value_us", "window"):
                    if fld not in rec:
                        raise ValueError(
                            f"{part}:{lineno}: exemplar missing {fld!r}")
                exemplars.append(rec)
            elif kind == "footer":
                footer = rec
            else:
                raise ValueError(
                    f"{part}:{lineno}: unknown record type {kind!r}")
    if window_us is None:
        raise ValueError(f"{path}: empty timeline file")
    return Timeline(window_us=window_us, windows=windows,
                    exemplars=exemplars, footer=footer,
                    torn_tail=torn_total)


def validate_timeline_jsonl(path) -> dict:
    """Schema check used by CI; returns summary counts."""
    tl = load_timeline_jsonl(path)
    if not tl.windows:
        raise ValueError(f"{path}: no windows recorded")
    if tl.footer is not None:
        claimed = tl.footer.get("windows")
        if tl.footer.get("rotated") or tl.torn_tail:
            # Rotation discards generations before <path>.1 and a torn
            # tail loses its record, so the file can hold fewer windows
            # than the run emitted — never more.
            if claimed is not None and len(tl.windows) > claimed:
                raise ValueError(
                    f"{path}: footer claims {claimed} windows, file "
                    f"holds {len(tl.windows)}")
        elif claimed != len(tl.windows):
            raise ValueError(
                f"{path}: footer claims {claimed} windows, "
                f"file holds {len(tl.windows)}")
    for rec in tl.windows:
        for key, v in rec["counters"].items():
            if v < 0:
                raise ValueError(
                    f"{path}: negative counter delta for {key} in window "
                    f"{rec['window']}")
        for key, entry in rec["histograms"].items():
            if entry["count"] != sum(entry["buckets"].values()):
                raise ValueError(
                    f"{path}: sub-histogram {key} count mismatch in window "
                    f"{rec['window']}")
    counts = {"windows": len(tl.windows), "exemplars": len(tl.exemplars)}
    if tl.torn_tail:
        counts["torn_tail"] = tl.torn_tail
    return counts


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_SPARK_CHARS = " ▁▂▃▄▅▆▇█"


def sparkline(values, width: int = 60) -> str:
    """An ASCII sparkline; None values render as gaps."""
    vals = list(values)
    if len(vals) > width:  # downsample by taking last of each bin
        step = len(vals) / width
        vals = [vals[min(len(vals) - 1, int((i + 1) * step) - 1)]
                for i in range(width)]
    present = [v for v in vals if v is not None]
    if not present:
        return ""
    lo, hi = min(present), max(present)
    span = hi - lo
    out = []
    for v in vals:
        if v is None:
            out.append("·")
        elif span <= 0:
            out.append(_SPARK_CHARS[4])
        else:
            idx = int((v - lo) / span * (len(_SPARK_CHARS) - 2)) + 1
            out.append(_SPARK_CHARS[min(idx, len(_SPARK_CHARS) - 1)])
    return "".join(out)
