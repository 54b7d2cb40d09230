"""The flight recorder: incident lifecycle, bundles, never-perturb."""

import filecmp
import json
import os

import pytest

import repro.obs.flightrecorder as flightrecorder_module
from repro.cli import main
from repro.obs import (
    FlightRecorder,
    Telemetry,
    list_incidents,
    load_incident,
    load_telemetry_dir,
)


def _window(i, **derived):
    return {"type": "window", "window": i, "start_us": i * 100.0,
            "end_us": (i + 1) * 100.0, "counters": {}, "gauges": {},
            "histograms": {}, "derived": derived}


def _armed(tmp_path, **kwargs):
    tel = Telemetry(trace=False, audit=False)
    tel.attach_timeline(window_us=100.0)
    return FlightRecorder(tel, out_dir=str(tmp_path),
                          config={"policy": "lru"}, **kwargs).arm()


def test_arm_requires_timeline():
    tel = Telemetry(trace=False, audit=False)
    with pytest.raises(RuntimeError, match="timeline"):
        FlightRecorder(tel).arm()


def test_sustained_overload_is_one_incident(tmp_path):
    flight = _armed(tmp_path)
    # queue_depth rising every window: queue_buildup goes critical at
    # the 6th consecutive rise and re-fires every window after — the
    # re-trigger must keep extending one open incident, not open more.
    for i in range(20):
        flight._on_window(_window(i, queue_depth=float(i)))
    assert flight.incidents == []  # still open: trigger keeps re-firing
    assert flight.finish() == 1
    assert flight.finish() == 1  # idempotent
    [bundle] = list_incidents(tmp_path)
    incident = load_incident(bundle)
    counts, manifest = incident.counts, incident.manifest
    assert manifest["trigger"]["detector"] == "queue_buildup"
    assert manifest["trigger"]["severity"] == "critical"
    assert manifest["trigger_window"] in manifest["windows"]
    # PRE_WINDOWS of context before the trigger, then every later window.
    assert flightrecorder_module.PRE_WINDOWS == 4
    assert manifest["windows"][0] == manifest["trigger_window"] - 4
    assert counts["windows"] == len(manifest["windows"])
    assert manifest["config"]["policy"] == "lru"
    assert len(manifest["config"]["fingerprint"]) == 16


def test_incident_closes_after_quiet_windows(tmp_path):
    assert flightrecorder_module.POST_WINDOWS == 2
    flight = _armed(tmp_path)
    for i in range(8):
        flight._on_window(_window(i, queue_depth=float(i)))
    # Depth flat: the buildup run resets, countdown drains, dump happens
    # while the run is still going.
    for i in range(8, 12):
        flight._on_window(_window(i, queue_depth=0.0))
    assert len(flight.incidents) == 1
    assert flight._open is None
    # A later, separate overload opens a second incident.
    for i in range(12, 32):
        flight._on_window(_window(i, queue_depth=float(i)))
    assert flight.finish() == 2
    assert [os.path.basename(b) for b in list_incidents(tmp_path)] == \
        ["incident-1", "incident-2"]


def test_counting_mode_writes_nothing(tmp_path):
    tel = Telemetry(trace=False, audit=False)
    tel.attach_timeline(window_us=100.0)
    flight = FlightRecorder(tel, out_dir=None).arm()
    for i in range(20):
        flight._on_window(_window(i, queue_depth=float(i)))
    assert flight.finish() == 1
    assert flight.incidents[0]["trigger"]["detector"] == "queue_buildup"
    assert list(tmp_path.iterdir()) == []


def test_warn_severity_triggers_earlier(tmp_path, monkeypatch):
    monkeypatch.setattr(flightrecorder_module, "POST_WINDOWS", 1)
    flight = _armed(tmp_path, trigger_severity="warn")
    for i in range(5):
        flight._on_window(_window(i, queue_depth=float(i)))
    # queue_buildup warns at the 3rd consecutive rise.
    assert flight._open is not None or flight.incidents


def test_max_incidents_caps_bundles(tmp_path, monkeypatch):
    monkeypatch.setattr(flightrecorder_module, "MAX_INCIDENTS", 1)
    monkeypatch.setattr(flightrecorder_module, "POST_WINDOWS", 1)
    flight = _armed(tmp_path)
    for burst in range(3):
        base = burst * 12
        for i in range(base, base + 8):
            flight._on_window(_window(i, queue_depth=float(i - base)))
        for i in range(base + 8, base + 12):
            flight._on_window(_window(i, queue_depth=0.0))
    assert flight.finish() == 1
    assert flight.truncated_incidents >= 1


_KNEE_ARGS = ["run", "--policy", "cbslru", "--docs", "20000",
              "--queries", "600", "--mem-mb", "2", "--ssd-mb", "8",
              "--arrival", "poisson", "--rate-qps", "3000",
              "--concurrency", "2", "--max-queue", "64",
              "--timeline", "--window-ms", "10"]


def test_past_knee_run_emits_valid_bundle(tmp_path, capsys):
    out = tmp_path / "tel"
    assert main(_KNEE_ARGS + ["--telemetry", str(out)]) == 0
    capsys.readouterr()
    bundles = list_incidents(out)
    assert bundles, "past-knee run must trigger at least one incident"
    loaded = load_telemetry_dir(out)
    assert len(loaded.incidents) == len(bundles)
    incident = loaded.incidents[0]
    man = incident.manifest
    # The bundle is self-contained evidence for the triggering window:
    # captured windows bracket it, and the affected qids resolve to
    # blame critical paths and/or span trees inside the bundle.
    assert man["trigger_window"] in man["windows"]
    assert man["qids"], "a saturated capture should name affected qids"
    blame_qids = {q["qid"] for q in incident.blame["queries"]}
    span_qids = {s["attrs"].get("qid") for s in incident.spans.spans}
    for qid in man["qids"]:
        assert qid in blame_qids or qid in span_qids
    assert man["resources"], "critical paths should name resources"
    assert man["capacity"]["bottleneck"] in man["resources"]


def test_recorder_never_perturbs_the_run(tmp_path, capsys):
    """Armed vs --no-flight: every simulated artifact byte-identical."""
    with_flight = tmp_path / "armed"
    without = tmp_path / "bare"
    assert main(_KNEE_ARGS + ["--telemetry", str(with_flight)]) == 0
    assert main(_KNEE_ARGS + ["--telemetry", str(without),
                              "--no-flight"]) == 0
    capsys.readouterr()
    assert list_incidents(with_flight) and not list_incidents(without)
    for name in ("timeline.jsonl", "blame.jsonl", "spans.jsonl",
                 "metrics.json"):
        assert filecmp.cmp(with_flight / name, without / name,
                           shallow=False), f"{name} diverged"


def test_validate_rejects_tampered_bundle(tmp_path):
    flight = _armed(tmp_path)
    for i in range(20):
        flight._on_window(_window(i, queue_depth=float(i)))
    flight.finish()
    [bundle] = list_incidents(tmp_path)
    manifest_path = os.path.join(bundle, "incident.json")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    manifest["windows"] = manifest["windows"][:-1]
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh)
    with pytest.raises(ValueError, match="windows"):
        load_incident(bundle)
