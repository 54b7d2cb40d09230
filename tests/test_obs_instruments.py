"""Metric instruments, the registry, and text/JSON exposition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    DEFAULT_PERCENTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    openmetrics_text,
)

# -- counters and gauges -----------------------------------------------------

def test_counter_increments_and_rejects_negative():
    c = Counter()
    c.inc()
    c.inc(5)
    assert c.value == 6
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_merge_sums():
    a, b = Counter(), Counter()
    a.inc(3)
    b.inc(4)
    a.merge(b)
    assert a.value == 7
    assert b.value == 4


def test_gauge_set_inc_dec_and_merge():
    g = Gauge()
    g.set(10.0)
    g.inc(2.0)
    g.dec(5.0)
    assert g.value == 7.0
    other = Gauge()
    other.set(99.0)
    g.merge(other)  # occupancy-style gauges sum across shards
    assert g.value == 106.0


def test_gauge_merge_modes():
    def pair(mode, a, b):
        x, y = Gauge(merge_mode=mode), Gauge(merge_mode=mode)
        x.set(a)
        y.set(b)
        x.merge(y)
        return x.value

    assert pair("sum", 7.0, 99.0) == 106.0
    assert pair("last", 7.0, 99.0) == 99.0  # merged-in reading wins
    assert pair("max", 7.0, 99.0) == 99.0
    assert pair("min", 7.0, 99.0) == 7.0
    with pytest.raises(ValueError):
        Gauge(merge_mode="average")


def test_registry_gauge_merge_mode_conflict_and_propagation():
    reg = MetricsRegistry()
    reg.gauge("wa", merge_mode="last").set(1.5)
    assert reg.gauge("wa").merge_mode == "last"  # omitted mode: no conflict
    with pytest.raises(ValueError):
        reg.gauge("wa", merge_mode="sum")
    # Registry merge preserves the source gauge's mode on first sight.
    other = MetricsRegistry()
    other.gauge("skew", merge_mode="max").set(3.0)
    reg.merge(other)
    assert reg.get("skew").merge_mode == "max"
    assert reg.get("skew").value == 3.0
    assert reg.get("wa").snapshot() == {"value": 1.5, "merge_mode": "last"}


# -- histogram mechanics -----------------------------------------------------

def test_histogram_validation():
    with pytest.raises(ValueError):
        Histogram(lo=0.0)
    with pytest.raises(ValueError):
        Histogram(growth=1.0)
    h = Histogram()
    with pytest.raises(ValueError):
        h.record(-1.0)
    # NaN passes ``value < 0``; it must not pick a bucket or reach sum.
    with pytest.raises(ValueError, match="non-negative"):
        h.record(float("nan"))
    assert (h.count, h.sum, h.snapshot()["buckets"]) == (0, 0.0, {})
    with pytest.raises(ValueError):
        h.percentile(50.0)  # empty
    h.record(1.0)
    with pytest.raises(ValueError):
        h.percentile(101.0)


def test_histogram_bucket_bounds_contain_their_samples():
    h = Histogram(lo=0.5, growth=1.04)
    for v in (0.0, 0.3, 0.5, 1.0, 17.2, 1234.5, 1e6):
        lo, hi = h.bucket_bounds(h.bucket_index(v))
        assert lo <= v < hi or (v == 0.0 and lo == 0.0)


def test_histogram_tracks_count_sum_min_max():
    h = Histogram()
    h.record_many([5.0, 1.0, 9.0])
    assert h.count == 3
    assert h.sum == 15.0
    assert h.min == 1.0
    assert h.max == 9.0
    assert h.mean == 5.0


def test_histogram_percentiles_ordered_and_clamped():
    h = Histogram()
    h.record_many(float(i) for i in range(1, 101))
    p50, p90, p95, p99, p999 = h.percentiles()
    assert p50 <= p90 <= p95 <= p99 <= p999
    assert h.min <= p50 and p999 <= h.max
    assert h.percentile(0.0) == h.min
    assert h.percentile(100.0) == h.max


def test_histogram_merge_sums_buckets():
    a, b = Histogram(), Histogram()
    a.record_many([1.0, 2.0, 3.0])
    b.record_many([100.0, 200.0])
    a.merge(b)
    assert a.count == 5
    assert a.sum == 306.0
    assert a.min == 1.0
    assert a.max == 200.0


def test_histogram_merge_rejects_layout_mismatch():
    a = Histogram(lo=0.5, growth=1.04)
    b = Histogram(lo=1.0, growth=1.04)
    with pytest.raises(ValueError):
        a.merge(b)


def test_histogram_snapshot_has_percentile_keys():
    h = Histogram()
    h.record_many([1.0, 10.0, 100.0])
    snap = h.snapshot()
    assert snap["count"] == 3
    for key in ("p50", "p90", "p95", "p99", "p999", "min", "max"):
        assert key in snap
    assert Histogram().snapshot()["count"] == 0


# -- the acceptance bound: within one bucket width of np.percentile ----------

@settings(max_examples=200, deadline=None)
@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e7,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=200,
    ),
    q=st.floats(min_value=0.0, max_value=100.0),
)
def test_histogram_percentile_within_one_bucket_of_numpy(samples, q):
    h = Histogram(lo=0.5, growth=1.04)
    h.record_many(samples)
    exact = float(np.percentile(samples, q))
    # The estimate interpolates between two order statistics, each located
    # inside its own bucket; the error is bounded by the wider bucket.
    lo_stat = float(np.percentile(samples, q, method="lower"))
    hi_stat = float(np.percentile(samples, q, method="higher"))
    tol = max(h.bucket_width_at(lo_stat), h.bucket_width_at(hi_stat)) + 1e-9
    assert abs(h.percentile(q) - exact) <= tol


def test_histogram_percentiles_accurate_on_latency_like_data():
    rng = np.random.default_rng(17)
    samples = rng.lognormal(mean=7.0, sigma=1.2, size=20_000)
    h = Histogram(lo=0.5, growth=1.04)
    h.record_many(samples.tolist())
    for q in DEFAULT_PERCENTILES:
        exact = float(np.percentile(samples, q))
        assert h.percentile(q) == pytest.approx(exact, rel=0.05)


# -- registry ----------------------------------------------------------------

def test_registry_returns_same_instrument_for_same_identity():
    reg = MetricsRegistry()
    a = reg.counter("hits", level="l1", kind="result")
    b = reg.counter("hits", kind="result", level="l1")  # tag order irrelevant
    assert a is b
    assert reg.counter("hits", level="l2", kind="result") is not a
    assert len(reg) == 2


def test_registry_rejects_kind_conflicts():
    reg = MetricsRegistry()
    reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_registry_get_and_items():
    reg = MetricsRegistry()
    reg.counter("hits", level="l1").inc(3)
    assert reg.get("hits", level="l1").value == 3
    assert reg.get("hits", level="l9") is None
    entries = list(reg.items())
    assert entries[0][0] == "hits"
    assert entries[0][1] == {"level": "l1"}


def test_registry_snapshot_schema():
    reg = MetricsRegistry()
    reg.counter("queries").inc(2)
    reg.histogram("lat").record(5.0)
    snap = reg.snapshot()
    assert snap["schema"] == "repro.obs.metrics/v1"
    kinds = {m["name"]: m["kind"] for m in snap["metrics"]}
    assert kinds == {"queries": "counter", "lat": "histogram"}


def test_registry_merge_sums_counters_and_histograms():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("n", shard="0").inc(2)
    b.counter("n", shard="0").inc(3)
    b.counter("n", shard="1").inc(7)  # key only the other registry saw
    a.histogram("lat").record_many([1.0, 2.0])
    b.histogram("lat").record_many([3.0])
    b.gauge("occ").set(0.5)
    a.merge(b)
    assert a.get("n", shard="0").value == 5
    assert a.get("n", shard="1").value == 7
    assert a.get("lat").count == 3
    assert a.get("occ").value == 0.5


# -- openmetrics text exposition ---------------------------------------------

def test_openmetrics_text_renders_all_kinds():
    reg = MetricsRegistry()
    reg.counter("hits_total", level="l1").inc(4)
    reg.gauge("occupancy").set(0.75)
    reg.histogram("latency_us").record_many([10.0, 20.0])
    text = openmetrics_text(reg)
    # Counter families drop the _total suffix in TYPE; samples keep it.
    assert "# TYPE hits counter" in text
    assert 'hits_total{level="l1"} 4' in text
    assert "# TYPE occupancy gauge" in text
    assert "# TYPE latency_us summary" in text
    assert 'latency_us{quantile="0.5"}' in text
    assert "latency_us_count 2" in text
    assert text.endswith("# EOF\n")


def test_openmetrics_accepts_snapshot_and_matches_registry():
    reg = MetricsRegistry()
    reg.counter("ops_total", kind="read").inc(7)
    reg.gauge("depth", resource="ssd").set(3.0)
    reg.histogram("wait_us").record_many([5.0, 15.0, 25.0])
    assert openmetrics_text(reg.snapshot()) == openmetrics_text(reg)
    with pytest.raises(ValueError, match="snapshot"):
        openmetrics_text({"schema": "other/v1"})


def _om_unescape(value: str) -> str:
    out, i = [], 0
    while i < len(value):
        c = value[i]
        if c == "\\":
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}[nxt])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def test_openmetrics_label_escaping_round_trips():
    hostile = 'sla="p99<5ms"\nback\\slash'
    reg = MetricsRegistry()
    reg.counter("evil_total", note=hostile).inc(1)
    text = openmetrics_text(reg)
    line = next(ln for ln in text.splitlines()
                if ln.startswith("evil_total{"))
    # The exposition line is one physical line with a quoted label value.
    escaped = line[line.index('note="') + len('note="'):line.rindex('"')]
    assert "\n" not in escaped
    assert _om_unescape(escaped) == hostile
