"""SLO spec parsing, evaluation, and the anomaly detectors."""

import pytest

from repro.obs import (
    evaluate_slo,
    evaluate_slos,
    parse_slo,
    run_detectors,
)


def windows(series_values: dict):
    """Synthetic window records from {series: [values...]}."""
    length = max(len(v) for v in series_values.values())
    out = []
    for i in range(length):
        derived = {s: vals[i] for s, vals in series_values.items()
                   if i < len(vals) and vals[i] is not None}
        out.append({"type": "window", "window": i, "start_us": i * 100.0,
                    "end_us": (i + 1) * 100.0, "counters": {}, "gauges": {},
                    "histograms": {}, "derived": derived})
    return out


def fired(detector: str, series_values: dict):
    """``run_detectors`` over synthetic windows, one detector's anomalies."""
    return [a for a in run_detectors(windows(series_values))
            if a.detector == detector]


# -- the grammar -------------------------------------------------------------

def test_parse_slo_grammar():
    spec = parse_slo("p99_response_us < 100000 @ 95%")
    assert spec.series == "p99_response_us"
    assert spec.op == "<"
    assert spec.threshold == 100000.0
    assert spec.min_fraction == 0.95

    spec = parse_slo("hit_ratio >= 0.3")
    assert spec.min_fraction == 1.0
    assert parse_slo("write_amp<=4.0@90%").op == "<="
    assert parse_slo("erases > 1e3").threshold == 1000.0


def test_parse_slo_rejects_garbage():
    for bad in ("p99 ~ 5", "hit_ratio >=", "< 3", "x > 1 @ 0%",
                "x > 1 @ 150%"):
        with pytest.raises(ValueError):
            parse_slo(bad)


# -- evaluation --------------------------------------------------------------

def test_evaluate_slo_verdicts_and_burn_rate():
    w = windows({"hit_ratio": [0.1, 0.5, 0.6, 0.7, 0.7]})
    met = evaluate_slo(parse_slo("hit_ratio >= 0.4 @ 80%"), w)
    assert met.verdict == "met"
    assert met.windows_evaluated == 5
    assert met.windows_passed == 4

    strict = evaluate_slo(parse_slo("hit_ratio >= 0.4"), w)
    assert strict.verdict == "violated"
    assert strict.worst_window == 0
    assert strict.worst_value == 0.1
    assert "FAIL" in strict.format()

    nodata = evaluate_slo(parse_slo("write_amp < 2"), w)
    assert nodata.verdict == "no-data"
    assert "no data" in nodata.format()


def test_evaluate_slos_accepts_text_lines():
    w = windows({"hit_ratio": [0.9, 0.9]})
    results = evaluate_slos(["hit_ratio >= 0.5", "hit_ratio < 0.5"], w)
    assert [r.verdict for r in results] == ["met", "violated"]


# -- detectors ---------------------------------------------------------------

def test_detect_hit_ratio_drift_fires_on_drop():
    stable = [0.7] * 6
    assert not fired("hit_ratio_drift", {"hit_ratio": stable})
    dropped = stable + [0.3]
    hits = fired("hit_ratio_drift", {"hit_ratio": dropped})
    assert hits and hits[0].window == 6
    assert hits[0].detector == "hit_ratio_drift"


def test_detect_write_amp_spike():
    calm = [1.2] * 6
    assert not fired("write_amp_spike", {"write_amp": calm})
    spiked = calm + [3.0]
    hits = fired("write_amp_spike", {"write_amp": spiked})
    assert hits and hits[0].severity == "critical"
    # A spike below SPIKE_MIN_WA is noise, not an anomaly.
    tiny = [0.5] * 6 + [1.2]
    assert not fired("write_amp_spike", {"write_amp": tiny})


def test_detect_queue_buildup_needs_consecutive_rise():
    sawtooth = [1, 3, 1, 3, 1, 3]
    assert not fired("queue_buildup", {"queue_depth": sawtooth})
    rising = [1, 2, 3, 4, 5]
    hits = fired("queue_buildup", {"queue_depth": rising})
    assert hits and hits[0].window == 3


def test_detect_queue_buildup_escalates_to_critical():
    """A run reaching BUILDUP_CRITICAL_K is the unbounded-backlog
    signature of an offered rate past the knee; --strict turns critical
    into a failure."""
    rising = list(range(1, 9))  # runs of length 3..7
    hits = fired("queue_buildup", {"queue_depth": rising})
    assert [h.severity for h in hits] == [
        "warn", "warn", "warn", "critical", "critical"]
    # A dip resets the run: no escalation without consecutive growth.
    interrupted = [1, 2, 3, 4, 1, 2, 3, 4, 5]
    hits = fired("queue_buildup", {"queue_depth": interrupted})
    assert all(h.severity == "warn" for h in hits)


def test_detect_wait_dominated_warns_after_sustained_run():
    calm = [0.3] * 8
    assert not fired("wait_dominated", {"wait_fraction": calm})
    # Three high windows are not a run of four; the fourth flags warn.
    short = [0.8, 0.8, 0.8, 0.3, 0.8]
    assert not fired("wait_dominated", {"wait_fraction": short})
    sustained = [0.8] * 5
    hits = fired("wait_dominated", {"wait_fraction": sustained})
    assert [(h.window, h.severity) for h in hits] == [(3, "warn"),
                                                     (4, "warn")]
    assert hits[0].detector == "wait_dominated"


def test_detect_wait_dominated_escalates_only_past_the_knee():
    # High-but-under-capacity fractions never reach critical: 0.90 for
    # many windows stays warn, so --strict passes a healthy loaded run.
    loaded = [0.90] * 12
    hits = fired("wait_dominated", {"wait_fraction": loaded})
    assert hits and all(h.severity == "warn" for h in hits)
    # Near-total wait domination sustained for WAIT_CRITICAL_K escalates.
    saturated = [0.97] * 9
    hits = fired("wait_dominated", {"wait_fraction": saturated})
    assert hits[-1].severity == "critical"
    assert [h.severity for h in hits].count("critical") == 2  # windows 7, 8
    # A single dip resets the critical run but not necessarily the warn.
    interrupted = [0.97] * 7 + [0.80] + [0.97] * 7
    hits = fired("wait_dominated", {"wait_fraction": interrupted})
    assert all(h.severity == "warn" for h in hits)


def test_run_detectors_includes_wait_dominated():
    w = windows({"wait_fraction": [0.8] * 6})
    anomalies = run_detectors(w)
    assert {a.detector for a in anomalies} == {"wait_dominated"}


def test_run_detectors_orders_by_window():
    w = windows({"hit_ratio": [0.7] * 6 + [0.2],
                 "queue_depth": [1, 2, 3, 4, 5, 5, 5]})
    anomalies = run_detectors(w)
    assert [a.window for a in anomalies] == sorted(a.window for a in anomalies)
    assert {a.detector for a in anomalies} == {"hit_ratio_drift",
                                               "queue_buildup"}
