"""The timeline recorder: windowing, reconciliation, exemplars, steady state."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.query import Query
from repro.obs import (
    ExemplarStore,
    Histogram,
    MetricsRegistry,
    Telemetry,
    TimelineRecorder,
    load_timeline_jsonl,
    merge_windows,
    sparkline,
    steady_state_window,
    sub_histogram,
    validate_telemetry_dir,
    window_series,
    write_telemetry_dir,
)
from repro.obs.timeline import derive_window
from tests._obs_reference import derive_window_reference

KB = 1024


class FakeClock:
    def __init__(self):
        self.now_us = 0.0


def make_manager(small_index, telemetry=None, policy=Policy.CBLRU):
    cfg = CacheConfig(
        mem_result_bytes=100 * KB, mem_list_bytes=384 * KB,
        ssd_result_bytes=512 * KB, ssd_list_bytes=2048 * KB,
        policy=policy,
    )
    return CacheManager(cfg, build_hierarchy_for(cfg, small_index), small_index,
                        telemetry=telemetry)


def replay(mgr, n=400):
    outcomes = []
    for i in range(n):
        out = mgr.process_query(Query(i % 60, (1 + i % 25, 26 + i % 20)))
        outcomes.append((out.situation, out.result_hit_level, out.response_us))
    return outcomes


# -- recorder mechanics ------------------------------------------------------

def test_recorder_windows_are_sparse_and_ordered():
    clock = FakeClock()
    reg = MetricsRegistry()
    rec = TimelineRecorder(reg, window_us=100.0, clock=clock)
    c = reg.counter("n")
    c.inc(3)
    clock.now_us = 150.0  # into window 1: closes window 0
    rec.tick()
    clock.now_us = 550.0  # skips windows 2-4 entirely (no activity)
    rec.tick()
    c.inc(7)
    rec.finish()
    assert [w["window"] for w in rec.windows] == [0, 5]
    assert rec.windows[0]["counters"]["n"] == 3
    assert rec.windows[1]["counters"]["n"] == 7
    assert rec.windows[0]["start_us"] == 0.0
    assert rec.windows[0]["end_us"] == 100.0


def test_recorder_finish_is_idempotent_and_gauges_on_change():
    clock = FakeClock()
    reg = MetricsRegistry()
    rec = TimelineRecorder(reg, window_us=100.0, clock=clock)
    g = reg.gauge("depth")
    g.set(4.0)
    clock.now_us = 120.0
    rec.tick()
    clock.now_us = 220.0  # gauge unchanged: window 1 has nothing to say
    rec.tick()
    rec.finish()
    rec.finish()
    assert [w["window"] for w in rec.windows] == [0]
    assert rec.windows[0]["gauges"]["depth"] == 4.0


def test_recorder_rejects_bad_window_width():
    with pytest.raises(ValueError):
        TimelineRecorder(MetricsRegistry(), window_us=0.0)


# -- the reconciliation properties (satellite: exact delta sums) -------------

@settings(max_examples=60, deadline=None)
@given(steps=st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=500.0),  # clock advance
              st.integers(min_value=0, max_value=50)),    # increment
    min_size=1, max_size=60,
))
def test_window_counter_deltas_sum_exactly_to_cumulative(steps):
    clock = FakeClock()
    reg = MetricsRegistry()
    rec = TimelineRecorder(reg, window_us=100.0, clock=clock)
    c = reg.counter("events_total", kind="x")
    for advance, inc in steps:
        clock.now_us += advance
        rec.tick()
        c.inc(inc)
    rec.finish()
    total = sum(w["counters"].get("events_total{kind=x}", 0)
                for w in rec.windows)
    assert total == c.value  # exact, not approx: integer telescoping


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=500.0),
              st.floats(min_value=0.0, max_value=1e6,
                        allow_nan=False, allow_infinity=False)),
    min_size=1, max_size=60,
))
def test_merged_sub_histograms_reproduce_run_level_histogram(steps):
    clock = FakeClock()
    reg = MetricsRegistry()
    rec = TimelineRecorder(reg, window_us=100.0, clock=clock)
    h = reg.histogram("lat")
    for advance, value in steps:
        clock.now_us += advance
        rec.tick()
        h.record(value)
    rec.finish()
    merged = merge_windows(rec.windows)["histograms"]["lat"]
    assert merged.count == h.count
    assert merged._counts == h._counts  # bucket-wise exact
    assert merged.sum == pytest.approx(h.sum, rel=1e-9, abs=1e-9)


def test_sub_histogram_reconstruction_bounds():
    h = Histogram()
    h.record_many([1.0, 50.0, 2000.0])
    entry = {"count": h.count, "sum": h.sum, "lo": h.lo, "growth": h.growth,
             "buckets": {str(b): c for b, c in h._counts.items()}}
    back = sub_histogram(entry)
    assert back.count == 3
    assert back.min <= 1.0 and back.max >= 2000.0
    # Percentiles survive the round trip to within one bucket width.
    assert back.percentile(50.0) == pytest.approx(
        h.percentile(50.0), rel=h.growth - 1.0)


# -- end-to-end with the cache manager ---------------------------------------

def test_timeline_reconciles_with_end_of_run_registry(small_index):
    tel = Telemetry(trace=False, audit=False)
    timeline = tel.attach_timeline(window_us=5_000.0)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    timeline.finish()
    assert timeline.emitted > 3, "workload too small to window"

    merged = merge_windows(timeline.windows)
    from repro.obs.timeline import series_key

    for name, tags, inst in tel.registry.items():
        key = series_key(name, tags)
        if inst.kind == "counter":
            assert merged["counters"].get(key, 0) == inst.value, key
        elif inst.kind == "histogram" and inst.count:
            sub = merged["histograms"][key]
            assert sub.count == inst.count, key
            assert sub._counts == inst._counts, key
            assert sub.sum == pytest.approx(inst.sum, rel=1e-9), key


def test_timeline_parity_attached_changes_no_outcome(small_index):
    bare = replay(make_manager(small_index))
    tel = Telemetry()
    tel.attach_timeline(window_us=5_000.0)
    observed = replay(make_manager(small_index, telemetry=tel))
    assert bare == observed


def test_timeline_derived_series_present(small_index):
    tel = Telemetry(trace=False, audit=False)
    timeline = tel.attach_timeline(window_us=5_000.0)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    timeline.finish()
    for series in ("queries", "hit_ratio", "p99_response_us"):
        assert window_series(timeline.windows, series), series
    total_queries = sum(v for _, v in window_series(timeline.windows,
                                                    "queries"))
    assert total_queries == mgr.stats.queries


# -- exemplars ---------------------------------------------------------------

def test_exemplar_store_captures_tail_samples_with_context():
    store = ExemplarStore(threshold_q=99.0, min_count=64)
    h = Histogram()
    store.register(h, "lat")
    for i in range(1, 101):
        store.context = (i, 1000 + i, i // 10, float(i))
        h.record(float(i))
    assert store.exemplars, "no tail samples captured"
    values = [ex.value_us for ex in store.exemplars]
    assert 100.0 in values  # the maximum is always in the tail
    for ex in store.exemplars:
        assert ex.metric == "lat"
        # Tail relative to the distribution *at capture time*: nothing
        # below the p99 of the first min_count samples ever qualifies.
        assert ex.value_us >= 63.0
        assert ex.query_id == int(ex.value_us)  # context travelled with it
        assert ex.span_id == 1000 + ex.query_id


def test_exemplar_traceable_to_span_and_audit(small_index):
    """The acceptance chain: histogram sample -> span -> audit records."""
    tel = Telemetry()  # tracing and audit on
    tel.attach_timeline(window_us=5_000.0)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr, n=600)
    tel.timeline.finish()

    exemplars = [e for e in tel.exemplars.exemplars
                 if e.query_id is not None and e.span_id is not None]
    assert exemplars, "no tail exemplars captured"

    spans = {s.span_id: s for s in tel.tracer.spans}
    ex = exemplars[-1]
    root = spans[ex.span_id]  # the exemplar's span exists
    assert root.name == "query"
    assert root.attrs["qid"] == ex.query_id
    assert root.dur_us == pytest.approx(ex.value_us)
    # ... and decisions made during that query are on the audit trail.
    inside = [r for r in tel.audit.records
              if root.start_us <= r.t_us <= root.end_us]
    assert inside, "no audit records during the exemplar's span"


# -- derived series: the single pass equals the parent's implementation ------

# Every series derive_window reads, tagged and untagged, plus near-miss
# names that share a prefix and must be ignored.
_COUNTER_KEYS = [
    "queries_total", "queries_total{situation=S1}",
    "queries_total{situation=S8}", "queries_totals{situation=S1}",
    "cache_result_lookups_total", "cache_result_lookups_total{outcome=l1_hit}",
    "cache_result_lookups_total{outcome=l2_hit}",
    "cache_result_lookups_total{outcome=miss}",
    "cache_list_lookups_total{outcome=l1_hit}",
    "cache_list_lookups_total{outcome=partial_hit}",
    "cache_list_lookups_total{outcome=miss,shard=2}",
    "flash_host_page_writes_total{device=ssd-cache}",
    "flash_host_page_writes_total", "flash_gc_page_writes_total{device=a}",
    "flash_gc_page_writes_total{device=b}", "flash_erases_total{device=a}",
    "flash_erases_total_x", "blame_wait_us_total{resource=index-hdd}",
    "blame_wait_us_total{resource=cpu}",
    "blame_service_us_total{resource=index-hdd}", "queue_depth",
    "cache_admits_total{kind=list,level=l1,reason=insert}",
]
_GAUGE_KEYS = [
    "queue_depth{resource=index-hdd}", "queue_depth{resource=admission}",
    "queue_depth", "queue_depths", "cache_write_buffer_entries",
    "cache_write_buffer_entries{shard=1}", "inflight_queries",
    "queries_total", "flash_free_blocks{device=ssd-cache}",
]
_HIST_KEYS = [
    "query_latency_us", "query_latency_us{situation=S1}",
    "query_latency_us{situation=S8}", "query_latency_us_x",
    "stage_latency_us{stage=l2}", "service_time_us",
]

_values = st.one_of(
    st.integers(min_value=0, max_value=10**9),
    st.floats(min_value=0.0, max_value=1e12, allow_nan=False))


@st.composite
def _sub_histograms(draw):
    buckets = draw(st.dictionaries(st.integers(min_value=0, max_value=400),
                                   st.integers(min_value=1, max_value=50),
                                   max_size=8))
    return {"count": sum(buckets.values()),
            "sum": draw(st.floats(min_value=0.0, max_value=1e9)),
            "lo": 0.5, "growth": 1.04,
            "buckets": {str(b): c for b, c in buckets.items()}}


_window_records = st.fixed_dictionaries({
    "type": st.just("window"), "window": st.integers(0, 99),
    "counters": st.dictionaries(st.sampled_from(_COUNTER_KEYS), _values),
    "gauges": st.dictionaries(st.sampled_from(_GAUGE_KEYS), _values),
    "histograms": st.dictionaries(st.sampled_from(_HIST_KEYS),
                                  _sub_histograms()),
})


@settings(max_examples=300, deadline=None)
@given(rec=_window_records)
def test_derive_window_equals_the_parent_implementation(rec):
    got, want = derive_window(rec), derive_window_reference(rec)
    assert got == want
    # The block is written to timeline.jsonl: key order is bytes too.
    assert list(got) == list(want)
    assert [type(v) for v in got.values()] == [type(v) for v in want.values()]


def test_derive_window_on_sparse_and_partial_records():
    assert derive_window({}) == derive_window_reference({}) == {}
    only_gauge = {"gauges": {"cache_write_buffer_entries": 3}}
    assert derive_window(only_gauge) == {"queue_depth": 3}
    empty_hist = {"histograms": {"query_latency_us{situation=S1}": {
        "count": 0, "sum": 0.0, "lo": 0.5, "growth": 1.04, "buckets": {}}}}
    assert derive_window(empty_hist) == derive_window_reference(empty_hist)
    mixed = {"histograms": {
        "query_latency_us{situation=S1}": {
            "count": 1, "sum": 1.0, "lo": 0.5, "growth": 1.04,
            "buckets": {"3": 1}},
        "query_latency_us{situation=S2}": {
            "count": 1, "sum": 1.0, "lo": 1.0, "growth": 1.04,
            "buckets": {"3": 1}}}}
    for derive in (derive_window, derive_window_reference):
        with pytest.raises(ValueError, match="bucket layouts"):
            derive(mixed)


# -- steady-state detection --------------------------------------------------

def synth_windows(values, series="hit_ratio"):
    return [{"type": "window", "window": i, "start_us": i * 100.0,
             "end_us": (i + 1) * 100.0, "counters": {}, "gauges": {},
             "histograms": {}, "derived": {series: v}}
            for i, v in enumerate(values)]


def test_steady_state_window_finds_stability_onset():
    warmup = [0.0, 0.1, 0.25, 0.4, 0.55, 0.65]
    steady = [0.70, 0.71, 0.70, 0.72, 0.71, 0.70, 0.71]
    windows = synth_windows(warmup + steady)
    assert steady_state_window(windows, k=5) == len(warmup)
    assert steady_state_window(synth_windows(warmup), k=5) is None
    assert steady_state_window(synth_windows([0.5]), k=5) is None
    with pytest.raises(ValueError):
        steady_state_window(windows, k=1)


def test_merge_windows_start_window_excludes_warmup():
    windows = synth_windows([0.1, 0.2, 0.7, 0.7])
    for i, w in enumerate(windows):
        w["counters"]["n"] = 10
    merged = merge_windows(windows, start_window=2)
    assert merged["counters"]["n"] == 20
    assert merged["first_window"] == 2


# -- export, load, validate --------------------------------------------------

def test_timeline_export_load_validate_roundtrip(small_index, tmp_path):
    tel = Telemetry()
    tel.attach_timeline(window_us=5_000.0)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    out = tmp_path / "tel"
    written = write_telemetry_dir(tel, out)
    assert written["timeline_windows"] > 0

    counts = validate_telemetry_dir(out)
    assert counts["timeline_windows"] == written["timeline_windows"]

    tl = load_timeline_jsonl(out / "timeline.jsonl")
    assert tl.window_us == 5_000.0
    assert len(tl.windows) == written["timeline_windows"]
    assert tl.footer["windows"] == len(tl.windows)
    # Reconciliation survives the disk round trip.
    merged = merge_windows(tl.windows)
    total = sum(v for k, v in merged["counters"].items()
                if k.startswith("queries_total{"))
    assert total == mgr.stats.queries


def test_streaming_timeline_matches_retained(small_index, tmp_path):
    path = tmp_path / "timeline.jsonl"
    tel = Telemetry(trace=False, audit=False)
    tel.attach_timeline(window_us=5_000.0, stream_path=path)
    mgr = make_manager(small_index, telemetry=tel)
    replay(mgr)
    tel.timeline.finish()
    tl = load_timeline_jsonl(path)
    assert [w["window"] for w in tl.windows] == \
        [w["window"] for w in tel.timeline.windows]
    assert tl.windows == list(tel.timeline.windows)


def test_streaming_run_exported_to_another_dir_keeps_its_timeline(
        small_index, tmp_path):
    # One rule for every streamed file: exporting to the stream's own
    # path finalises in place, exporting elsewhere copies it.  The
    # timeline used to return early and leave the second dir without one.
    a, b = tmp_path / "t_a", tmp_path / "t_b"
    a.mkdir()
    tel = Telemetry()
    tel.tracer.open_stream(a / "spans.jsonl")
    tel.attach_timeline(window_us=5_000.0,
                        stream_path=a / "timeline.jsonl", max_windows=8)
    replay(make_manager(small_index, telemetry=tel))
    written = write_telemetry_dir(tel, b)
    assert tel.timeline._stream.rotations > 0
    for name in ("timeline.jsonl", "timeline.jsonl.1", "spans.jsonl"):
        assert (b / name).read_bytes() == (a / name).read_bytes()
    counts = validate_telemetry_dir(b)
    assert counts["spans"] == written["spans"]
    assert counts["timeline_windows"] == len(
        load_timeline_jsonl(a / "timeline.jsonl").windows)
    # Unrotated: the copy validates with the summary's window count.
    c, d = tmp_path / "t_c", tmp_path / "t_d"
    c.mkdir()
    tel = Telemetry()
    tel.attach_timeline(window_us=5_000.0, stream_path=c / "timeline.jsonl")
    replay(make_manager(small_index, telemetry=tel))
    written = write_telemetry_dir(tel, d)
    assert validate_telemetry_dir(d)["timeline_windows"] == \
        written["timeline_windows"] > 0


def test_validate_timeline_rejects_corruption(tmp_path):
    path = tmp_path / "timeline.jsonl"
    path.write_text(json.dumps({"type": "header", "schema": "nope"}) + "\n")
    with pytest.raises(ValueError):
        load_timeline_jsonl(path)
    good_header = json.dumps({"type": "header",
                              "schema": "repro.obs.timeline/v1",
                              "window_us": 100.0})
    bad_window = json.dumps({"type": "window", "window": 0, "start_us": 100.0,
                             "end_us": 50.0, "counters": {}, "gauges": {},
                             "histograms": {}})
    path.write_text(good_header + "\n" + bad_window + "\n")
    with pytest.raises(ValueError):
        load_timeline_jsonl(path)


# -- rendering ---------------------------------------------------------------

def test_sparkline_shapes():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0]) == "▄▄"
    line = sparkline([0.0, None, 10.0])
    assert len(line) == 3
    assert line[1] == "·"
    assert line[0] < line[2]
    assert len(sparkline(list(range(200)), width=40)) == 40
