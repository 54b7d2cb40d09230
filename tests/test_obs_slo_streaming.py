"""The streaming SLO/detector classes' own contract.

The post-hoc functions (``run_detectors``, ``evaluate_slos``,
``detect_shard_skew``) are folds of these classes over saved windows, so
the flight recorder's in-run triggers and the verdicts re-derived from
the file are one implementation; ``tests/test_obs_slo.py`` holds the
hand-written expectations for every detector.
"""

from repro.obs import StreamingDetectors, window_point


def test_window_point_prefers_derived():
    rec = {"type": "window", "window": 7, "start_us": 0.0, "end_us": 1.0,
           "counters": {}, "gauges": {}, "histograms": {},
           "derived": {"hit_ratio": 0.5}}
    assert window_point(rec, "hit_ratio") == (7, 0.5)
    assert window_point(rec, "write_amp") is None


def test_streaming_detectors_update_returns_fresh_batch():
    streaming = StreamingDetectors()
    batches = []
    for i in range(12):
        rec = {"type": "window", "window": i, "start_us": i * 100.0,
               "end_us": (i + 1) * 100.0, "counters": {}, "gauges": {},
               "histograms": {}, "derived": {"queue_depth": float(i)}}
        batches.append(streaming.update(rec))
    flat = [a for batch in batches for a in batch]
    assert flat == streaming.anomalies
    assert any(a.detector == "queue_buildup" for a in flat)
