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
* **gauges** are sampled at each window close (recorded when changed;
  the depth gauges behind the derived ``queue_depth`` are recorded in
  every non-sparse window, so that sum is exact from the record alone).

Windows are closed *lazily*: :meth:`tick` closes every window whose
right edge the clock has passed (``record_query`` calls it once a
query completes at or past :attr:`TimelineRecorder.edge_us`),
attributing everything recorded since the previous close to the
closing window.  Activity is therefore
quantized at query granularity — a query's samples land in the window
containing its completion time — while the sum-over-windows identities
above hold exactly.  Windows with no activity are skipped (*sparse*);
retained records live in a bounded ring (:data:`RETAIN_WINDOWS`), and
the recorder of a ``Telemetry(out_dir=DIR)`` also writes and flushes
each window to ``DIR/timeline.jsonl`` the moment it closes, so ``repro
top DIR`` can follow a running run.

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
samples landing above the :data:`EXEMPLAR_Q` percentile of their own
histogram, so ``repro explain --query`` can chain a tail latency to its
tracer span and the audit-trail decisions made inside it.

The **steady-state detector** (:func:`steady_state_window`) is a
sliding-window mean-stability test on the windowed hit ratio; the bench
harness uses it to exclude cache warmup from ``BENCH_*.json``
measurements.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple

from repro.obs._jsonl import JsonlWriter, read_jsonl, write_jsonl
from repro.obs.instruments import Histogram, take_window_deltas
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
    "sparkline",
    "format_top_frame",
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

# What :class:`ExemplarStore` captures and keeps (see its docstring).
EXEMPLAR_Q = 99.0
EXEMPLAR_MIN_COUNT = 64
EXEMPLAR_CAPACITY = 512


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
    record` strictly above the :data:`EXEMPLAR_Q`-th percentile of
    *that* histogram captures the ambient :attr:`context` (query id,
    span id, timeline window, time) its owner assigns.  Strictly: a
    histogram of one repeated value has its percentile at that value,
    and none of its samples is a tail.  The percentile threshold
    lives in the histogram's ``exemplar_gate`` with the count at which it
    is refreshed next, so ``record`` offers only a tail sample or a due
    refresh; the store itself is a bounded ring
    (:data:`EXEMPLAR_CAPACITY`), counting what it drops.
    """

    def __init__(self) -> None:
        self.exemplars: deque[Exemplar] = deque(maxlen=EXEMPLAR_CAPACITY)
        self.dropped = 0
        self._labels: dict[int, str] = {}
        #: ``(query_id, span_id, window, t_us)`` of the samples offered next
        self.context: tuple[int | None, int | None, int, float] = (
            None, None, 0, 0.0)

    def register(self, hist: Histogram, label: str) -> None:
        """Attach this store to ``hist`` as its exemplar sink; nothing is
        offered before :data:`EXEMPLAR_MIN_COUNT` samples."""
        hist.exemplar_sink = self
        hist.exemplar_gate = (EXEMPLAR_MIN_COUNT, float("inf"))
        self._labels[id(hist)] = label

    def offer(self, hist: Histogram, value: float) -> None:
        """Called by ``Histogram.record`` for a sample that passed the
        histogram's gate: refreshes the threshold once the count reaches
        the gate's, then captures the sample if it is above the
        threshold."""
        count = hist.count
        refresh_at, threshold = hist.exemplar_gate
        if count >= refresh_at:
            threshold = hist.percentile(EXEMPLAR_Q)
            hist.exemplar_gate = (count + max(64, count // 2), threshold)
        if value <= threshold:
            return
        qid, span_id, window, t_us = self.context
        if len(self.exemplars) == self.exemplars.maxlen:
            self.dropped += 1
        self.exemplars.append(Exemplar(
            metric=self._labels.get(id(hist), "histogram"),
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

def _right_edge(window: int, window_us: float) -> float:
    """The smallest float ``t`` with ``int(t // window_us) > window``.

    Starts at the analytic ``(window + 1) * window_us`` and walks by
    ulps (``math.nextafter``) to the exact float where floor division
    first passes ``window``, as the histogram's boundary table does, so
    ``now >= edge`` and :meth:`TimelineRecorder.tick`'s own test agree
    on every clock reading.
    """
    t = (window + 1) * window_us
    if t // window_us > window:
        while (p := math.nextafter(t, -math.inf)) // window_us > window:
            t = p
    else:
        while not t // window_us > window:
            t = math.nextafter(t, math.inf)
    return t


#: Closed windows held in memory (drop-oldest, counted in ``dropped_windows``).
RETAIN_WINDOWS = 4096


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
                 clock=None, collect=None,
                 exemplars: ExemplarStore | None = None) -> None:
        if window_us <= 0:
            raise ValueError("window_us must be positive")
        self.registry = registry
        self.window_us = float(window_us)
        self.clock = clock
        self.collect = collect
        self.exemplars = exemplars
        self.windows: deque[dict] = deque(maxlen=RETAIN_WINDOWS)
        self.dropped_windows = 0
        self.emitted = 0
        #: the open window's index, and the first clock reading past its
        #: right edge: a query completing before ``edge_us`` needs no tick
        self.open_window = 0
        self.edge_us = _right_edge(0, self.window_us)
        self._finished = False
        #: the timeline file's :class:`JsonlWriter` when streaming, else None
        self._stream: JsonlWriter | None = None
        self._callbacks: list = []
        # [series key, instrument, value at last close] rows per kind, in
        # registry order; rebuilt when the append-only registry has grown.
        self._by_kind: tuple[list, list, list] = ([], [], [])
        self._hists: list[Histogram] = []
        self._planned = 0

    # -- streaming -----------------------------------------------------------

    def _header(self) -> dict:
        return {"type": "header", "schema": TIMELINE_SCHEMA,
                "window_us": self.window_us}

    def _stream_into(self, path) -> None:
        """Write each window to ``path`` as it closes (header first);
        called by ``Telemetry(out_dir=)`` in ``attach_timeline``."""
        self._stream = JsonlWriter(path, header=self._header())
        self._stream.flush()

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
        if idx > self.open_window:
            self._close_open_window()
            self.open_window = idx
            self.edge_us = _right_edge(idx, self.window_us)
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
            for rec in self._trailer(self._stream.written):
                self._stream.write_trailer(rec)
            self._stream.close()

    def _trailer(self, windows: int) -> list[dict]:
        """What follows the ``windows`` window records of a file: the
        exemplars, then the footer.  ``dropped_windows`` counts the
        windows that fell off the retained ring."""
        footer = {"type": "footer", "windows": windows,
                  "dropped_windows": self.dropped_windows}
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
            # The fourth field: a depth gauge, recorded in every
            # non-sparse window.
            rows = [[key := series_key(name, tags), inst,
                     seen.get(key, start[inst.kind]),
                     not _DEPTH_SERIES.isdisjoint(_series_role(key))]
                    for name, tags, inst in self.registry.items()]
            self._by_kind = tuple([row for row in rows if row[1].kind == kind]
                                  for kind in start)
            self._hists = [row[1] for row in self._by_kind[2]]
            self._planned = len(rows)
        # Only series that moved since the previous close are recorded,
        # and the depth gauges (derive_window sums all of them).
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        hists: dict[str, dict] = {}
        moved = False
        for row in self._by_kind[0]:
            value = row[1].value
            if value != row[2]:
                counters[row[0]] = value - row[2]
                row[2] = value
        for row in self._by_kind[1]:
            value = row[1].value
            if value != row[2]:
                gauges[row[0]] = row[2] = value
                moved = True
            elif row[3]:
                gauges[row[0]] = value
        hist_rows = self._by_kind[2]
        for i, count, total, delta_b in take_window_deltas(self._hists):
            row = hist_rows[i]
            prev_c, prev_s = row[2]
            hists[row[0]] = {
                "count": count - prev_c,
                "sum": total - prev_s,
                "lo": row[1].lo,
                "growth": row[1].growth,
                "buckets": {str(b): delta_b[b] for b in sorted(delta_b)},
            }
            row[2] = (count, total)
        if not (counters or moved or hists):
            return  # sparse: nothing happened in this window
        rec = {
            "type": "window",
            "window": self.open_window,
            "start_us": self.open_window * self.window_us,
            "end_us": (self.open_window + 1) * self.window_us,
            "counters": counters,
            "gauges": gauges,
            "histograms": hists,
        }
        stream = self._stream
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
            # Flushed as it closes: `repro top DIR` follows a running run.
            stream.write(rec)
            stream.flush()
        for cb in self._callbacks:
            cb(rec)

    # -- export --------------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write the timeline to ``path``; returns the number of windows
        the file holds.

        A streaming recorder's windows are already in ``path``, its own
        file, finalised by :meth:`finish`.  Otherwise the file holds the
        retained ring (:data:`RETAIN_WINDOWS`), and its footer says how
        many windows fell off it.
        """
        self.finish()
        if self._stream is not None:
            return self._stream.finish(path)
        write_jsonl(path, chain(self.windows, self._trailer(len(self.windows))),
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
    return Histogram.from_buckets(
        entry["buckets"], entry["count"], entry["sum"],
        lo=entry.get("lo", 0.5), growth=entry.get("growth", 1.04))


#: The gauges the derived ``queue_depth`` sums (every one, every window).
_DEPTH_SERIES = frozenset(("queue_depth", "cache_write_buffer_entries"))

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
    derived = rec.get("derived")
    if derived is None:  # an empty derived block is a derived block
        derived = derive_window(rec)
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
    """A parsed ``timeline.jsonl``: header + windows + exemplars;
    ``torn_tail`` counts cut final records skipped (a run killed
    mid-write)."""

    path: str
    window_us: float
    windows: list[dict]
    exemplars: list[dict]
    footer: dict | None = None
    torn_tail: int = 0


def load_timeline_jsonl(path) -> Timeline:
    """Load and schema-check a timeline file.

    Beyond record shapes it checks that the footer's window count
    matches the file (a file whose torn tail was skipped may hold
    fewer), counter deltas are non-negative and every sub-histogram's
    count is its buckets' sum.
    """
    windows: list[dict] = []
    exemplars: list[dict] = []
    footer = None
    records, torn = read_jsonl(path)
    if not records:
        raise ValueError(f"{path}: empty timeline file")
    for pos, (lineno, rec) in enumerate(records):
        kind = rec.get("type")
        if pos == 0:
            if (kind != "header" or rec.get("schema") != TIMELINE_SCHEMA
                    or "window_us" not in rec):
                raise ValueError(
                    f"{path}:{lineno}: not a {TIMELINE_SCHEMA} header")
            window_us = rec["window_us"]
        elif kind == "header":
            raise ValueError(
                f"{path}:{lineno}: header after the first record")
        elif kind == "window":
            for fld in ("window", "start_us", "end_us", "counters",
                        "gauges", "histograms"):
                if fld not in rec:
                    raise ValueError(
                        f"{path}:{lineno}: window missing {fld!r}")
            if rec["end_us"] <= rec["start_us"]:
                raise ValueError(
                    f"{path}:{lineno}: window ends before it starts")
            if windows and rec["window"] <= windows[-1]["window"]:
                raise ValueError(
                    f"{path}:{lineno}: window indices must increase")
            windows.append(rec)
        elif kind == "exemplar":
            for fld in ("metric", "value_us", "window"):
                if fld not in rec:
                    raise ValueError(
                        f"{path}:{lineno}: exemplar missing {fld!r}")
            exemplars.append(rec)
        elif kind == "footer":
            footer = rec
        else:
            raise ValueError(
                f"{path}:{lineno}: unknown record type {kind!r}")
    if footer is not None:
        claimed = footer.get("windows")
        if claimed != len(windows) and not (
                torn and claimed is not None and len(windows) < claimed):
            raise ValueError(
                f"{path}: footer claims {claimed} windows, "
                f"file holds {len(windows)}")
    for rec in windows:
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
    return Timeline(path, window_us, windows, exemplars, footer, torn)


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


#: Derived series ``repro top`` draws sparklines for, in display order.
TOP_SERIES = ("queries", "hit_ratio", "p99_response_us", "write_amp",
              "queue_depth", "wait_fraction")


def format_top_frame(where: str, windows, manifests=(),
                     width: int = 60) -> str:
    """One ``repro top`` frame: sparklines over the last 32 of a run's
    closed ``windows``, SLO verdicts and anomalies over all of them, and
    the dumped incidents' ``manifests``."""
    from repro.obs.slo import DEFAULT_SLOS, evaluate_slos, run_detectors

    head = f"repro top — {where}" if where else "repro top"
    if windows:
        head += f"  t={windows[-1]['end_us'] / 1e6:.2f}s"
    lines = [f"{head}  windows={len(windows)}", ""]
    # An empty derived block is a derived block; only a record that
    # carries none is derived here.
    recent = [rec["derived"] if rec.get("derived") is not None
              else derive_window(rec) for rec in windows[-32:]]
    for series in TOP_SERIES:
        pts = [derived.get(series) for derived in recent]
        present = [v for v in pts if v is not None]
        if not present:
            continue
        last = present[-1]
        if series in ("hit_ratio", "wait_fraction"):
            label = f"{last:.1%}"
        elif series == "p99_response_us":
            label = (f"{last / 1e3:.1f}ms" if last >= 1e3
                     else f"{last:.0f}us")
        else:
            label = f"{last:g}"
        lines.append(f"  {series:<16s} {sparkline(pts, width=width)} {label}")
    lines.append("")
    for r in evaluate_slos(DEFAULT_SLOS, windows):
        mark = {"met": "ok  ", "violated": "FAIL"}.get(r.verdict, "?   ")
        lines.append(f"  {mark} {r.spec.text} "
                     f"[{r.windows_passed}/{r.windows_evaluated}]")
    anomalies = run_detectors(windows)
    critical = sum(1 for a in anomalies if a.severity == "critical")
    lines += ["", f"  anomalies: {len(anomalies)} ({critical} critical)"]
    for a in anomalies[-4:]:
        lines.append(f"    [{a.severity}] {a.detector} "
                     f"@ {a.window}: {a.detail}")
    lines += ["", f"  incidents: {len(manifests)} dumped"]
    for m in manifests[-4:]:
        t = m["trigger"]
        lines.append(f"    incident-{m['incident']}: [{t['severity']}] "
                     f"{t['detector']} @ window {t['window']}")
    return "\n".join(lines)
