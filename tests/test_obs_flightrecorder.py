"""The flight recorder: incident lifecycle, the incident log, never-perturb."""

import filecmp
import json

import pytest

import repro.obs.flightrecorder as flightrecorder_module
from repro.cli import main
from repro.obs import (
    FlightRecorder,
    Telemetry,
    load_incidents,
    load_telemetry_dir,
)


def _window(i, **derived):
    return {"type": "window", "window": i, "start_us": i * 100.0,
            "end_us": (i + 1) * 100.0, "counters": {}, "gauges": {},
            "histograms": {}, "derived": derived}


def _armed(tmp_path, **kwargs):
    """A telemetry streaming into ``tmp_path``, its recorder armed (the
    telemetry owns the recorder: hold the telemetry)."""
    tel = Telemetry(trace=False, audit=False, out_dir=tmp_path)
    tel.attach_timeline(window_us=100.0)
    FlightRecorder(tel, out_dir=str(tmp_path), config={"policy": "lru"},
                   **kwargs).arm()
    return tel


def _close(tel, rec):
    """Close one window as the timeline does: on disk, then the
    callbacks."""
    stream = tel.timeline._stream
    stream.write(rec)
    stream.flush()
    tel.flight._on_window(rec)


def test_arm_requires_timeline():
    tel = Telemetry(trace=False, audit=False)
    with pytest.raises(RuntimeError, match="timeline"):
        FlightRecorder(tel).arm()


def test_sustained_overload_is_one_incident(tmp_path):
    tel = _armed(tmp_path)
    flight = tel.flight
    # queue_depth rising every window: queue_buildup goes critical at
    # the 6th consecutive rise and re-fires every window after — the
    # re-trigger must keep extending one open incident, not open more.
    for i in range(20):
        _close(tel, _window(i, queue_depth=float(i)))
    assert flight.incidents == []  # still open: trigger keeps re-firing
    assert not (tmp_path / "incidents.jsonl").exists()
    assert flight.finish() == 1
    assert flight.finish() == 1  # idempotent
    [incident] = load_incidents(tmp_path).incidents
    counts, manifest = incident.counts, incident.manifest
    assert manifest["schema"] == "repro.obs.incident/v2"
    assert "counts" not in manifest
    assert manifest["trigger"]["detector"] == "queue_buildup"
    assert manifest["trigger"]["severity"] == "critical"
    assert manifest["trigger_window"] in manifest["windows"]
    # PRE_WINDOWS of context before the trigger, then every later window.
    assert flightrecorder_module.PRE_WINDOWS == 4
    assert manifest["windows"][0] == manifest["trigger_window"] - 4
    assert [w["window"] for w in incident.windows] == manifest["windows"]
    assert counts["windows"] == len(manifest["windows"])
    assert manifest["config"]["policy"] == "lru"
    assert len(manifest["config"]["fingerprint"]) == 16


def test_incident_closes_after_quiet_windows(tmp_path):
    assert flightrecorder_module.POST_WINDOWS == 2
    tel = _armed(tmp_path)
    flight = tel.flight
    for i in range(8):
        _close(tel, _window(i, queue_depth=float(i)))
    # Depth flat: the buildup run resets, countdown drains, dump happens
    # while the run is still going — the manifest is on disk at once.
    for i in range(8, 12):
        _close(tel, _window(i, queue_depth=0.0))
    assert len(flight.incidents) == 1
    assert flight._open is None
    [line] = (tmp_path / "incidents.jsonl").read_text().splitlines()
    assert json.loads(line) == flight.incidents[0]
    # A later, separate overload opens a second incident.
    for i in range(12, 32):
        _close(tel, _window(i, queue_depth=float(i)))
    assert flight.finish() == 2
    lines = (tmp_path / "incidents.jsonl").read_text().splitlines()
    assert json.loads(lines[-1]) == {"type": "footer", "incidents": 2,
                                     "truncated_incidents": 0}
    assert [inc.manifest["incident"]
            for inc in load_incidents(tmp_path).incidents] == [1, 2]


def test_counting_mode_writes_nothing(tmp_path):
    tel = Telemetry(trace=False, audit=False)
    tel.attach_timeline(window_us=100.0)
    flight = FlightRecorder(tel, out_dir=None).arm()
    for i in range(20):
        flight._on_window(_window(i, queue_depth=float(i)))
    assert flight.finish() == 1
    assert flight.incidents[0]["trigger"]["detector"] == "queue_buildup"
    assert list(tmp_path.iterdir()) == []


def test_a_foreign_out_dir_raises_before_anything_is_written(tmp_path):
    """Incidents go to the telemetry's own directory, where their
    evidence is: any other directory is refused at construction."""
    own, other = tmp_path / "own", tmp_path / "other"
    tel = Telemetry(trace=False, audit=False, out_dir=own)
    tel.attach_timeline(window_us=100.0)
    before = sorted(p.name for p in own.iterdir())
    with pytest.raises(ValueError, match="own out_dir"):
        FlightRecorder(tel, out_dir=other)
    with pytest.raises(ValueError, match="own out_dir"):
        FlightRecorder(Telemetry(trace=False, audit=False), out_dir=own)
    assert not other.exists()
    assert sorted(p.name for p in own.iterdir()) == before
    assert tel.flight is None
    # The same directory spelled another way is the telemetry's own.
    FlightRecorder(tel, out_dir=str(own) + "/").arm()
    assert tel.flight is not None


def test_warn_severity_triggers_earlier(tmp_path, monkeypatch):
    monkeypatch.setattr(flightrecorder_module, "POST_WINDOWS", 1)
    tel = _armed(tmp_path, trigger_severity="warn")
    flight = tel.flight
    for i in range(5):
        _close(tel, _window(i, queue_depth=float(i)))
    # queue_buildup warns at the 3rd consecutive rise.
    assert flight._open is not None or flight.incidents


def test_max_incidents_caps_bundles(tmp_path, monkeypatch):
    monkeypatch.setattr(flightrecorder_module, "MAX_INCIDENTS", 1)
    monkeypatch.setattr(flightrecorder_module, "POST_WINDOWS", 1)
    tel = _armed(tmp_path)
    flight = tel.flight
    for burst in range(3):
        base = burst * 12
        for i in range(base, base + 8):
            _close(tel, _window(i, queue_depth=float(i - base)))
        for i in range(base + 8, base + 12):
            _close(tel, _window(i, queue_depth=0.0))
    assert flight.finish() == 1
    assert flight.truncated_incidents >= 1
    footer = json.loads(
        (tmp_path / "incidents.jsonl").read_text().splitlines()[-1])
    assert footer["truncated_incidents"] == flight.truncated_incidents
    assert len(load_incidents(tmp_path).incidents) == 1


_KNEE_ARGS = ["run", "--policy", "cbslru", "--docs", "20000",
              "--queries", "600", "--mem-mb", "2", "--ssd-mb", "8",
              "--arrival", "poisson", "--rate-qps", "3000",
              "--concurrency", "2", "--max-queue", "64",
              "--timeline", "--window-ms", "10"]


def test_past_knee_run_emits_valid_bundle(tmp_path, capsys):
    out = tmp_path / "tel"
    assert main(_KNEE_ARGS + ["--telemetry", str(out)]) == 0
    capsys.readouterr()
    log = load_incidents(out)
    assert log.incidents, "past-knee run must trigger at least one incident"
    loaded = load_telemetry_dir(out)
    assert len(loaded.incidents) == len(log.incidents)
    assert loaded.incidents == log.incidents  # one slicer, two loaders
    incident = loaded.incidents[0]
    man = incident.manifest
    # The incident is evidence for the triggering window: captured
    # windows bracket it, and the affected qids resolve to blame critical
    # paths and/or span trees in the directory's own files.
    assert man["trigger_window"] in man["windows"]
    assert man["qids"], "a saturated capture should name affected qids"
    blame_qids = {q.qid for q in incident.blame}
    span_qids = {s["attrs"].get("qid") for s in incident.spans}
    for qid in man["qids"]:
        assert qid in blame_qids or qid in span_qids
    assert [q.total_us for q in incident.blame] == sorted(
        (q.total_us for q in incident.blame), reverse=True)
    assert all(man["start_us"] <= r["t_us"] <= man["end_us"]
               for r in incident.audit)
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
    assert load_incidents(with_flight).incidents
    assert not (without / "incidents.jsonl").exists()
    assert sorted(p.name for p in with_flight.iterdir()) == sorted(
        [p.name for p in without.iterdir()] + ["incidents.jsonl"])
    for name in ("timeline.jsonl", "blame.jsonl", "spans.jsonl",
                 "audit.jsonl", "metrics.json"):
        assert filecmp.cmp(with_flight / name, without / name,
                           shallow=False), f"{name} diverged"


def test_validate_rejects_tampered_bundle(tmp_path):
    tel = _armed(tmp_path)
    for i in range(20):
        _close(tel, _window(i, queue_depth=float(i)))
    tel.close()
    path = tmp_path / "incidents.jsonl"
    manifest_line, footer = path.read_text().splitlines()
    manifest = json.loads(manifest_line)

    def tampered(**fields):
        path.write_text(json.dumps({**manifest, **fields}) + "\n" + footer
                        + "\n")

    tampered(windows=manifest["windows"] + [99])
    with pytest.raises(ValueError, match=r"windows \[99\] are not in"):
        load_incidents(tmp_path)
    tampered(trigger_window=99)
    with pytest.raises(ValueError, match="trigger window 99 not captured"):
        load_incidents(tmp_path)
    tampered(schema="repro.obs.incident/v1")
    with pytest.raises(ValueError, match="not a repro.obs.incident/v2"):
        load_incidents(tmp_path)
    path.write_text(manifest_line + "\n" + footer.replace("1", "2") + "\n")
    with pytest.raises(ValueError, match="footer claims 2 incidents"):
        load_incidents(tmp_path)
