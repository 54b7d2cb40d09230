"""Following a live run through its telemetry directory: the ``repro top``
frame, drawn straight from timeline windows and the manifests of
``incidents.jsonl``."""

from repro.cli import main
from repro.core.config import CacheConfig, Policy
from repro.obs import (FlightRecorder, Telemetry, format_top_frame,
                       load_timeline_jsonl)
from repro.obs import timeline as timeline_module
from repro.workloads.retrieval import prepare_cached_manager, run_cached
from repro.workloads.sweep import make_log_for, make_scaled_index

MB = 1024 * 1024


def _window(i, **derived):
    return {"type": "window", "window": i, "start_us": i * 100.0,
            "end_us": (i + 1) * 100.0, "counters": {}, "gauges": {},
            "histograms": {}, "derived": derived}


def test_format_top_frame_renders_all_sections():
    windows = [_window(i, hit_ratio=0.5, queue_depth=float(i))
               for i in range(10)]
    manifests = [{"incident": 1, "trigger": {
        "severity": "critical", "detector": "queue_growth", "window": 9}}]
    frame = format_top_frame("run", windows, manifests, width=20)
    assert frame.splitlines()[0] == "repro top — run  t=0.00s  windows=10"
    assert "hit_ratio" in frame and "queue_depth" in frame
    # queue_depth rose 9 windows in a row: anomalies must be visible.
    assert "anomalies:" in frame and "(0 critical)" not in frame
    assert "incidents: 1 dumped" in frame
    assert "incident-1: [critical] queue_growth @ window 9" in frame


def test_status_from_dir_matches_live_shape(tmp_path):
    """The streamed file draws the frame the run's own windows draw."""
    path = tmp_path / "timeline.jsonl"
    tel = Telemetry(out_dir=tmp_path)
    tel.attach_timeline(window_us=20_000.0)
    index = make_scaled_index(20_000)
    log = make_log_for(300, seed=7)
    cfg = CacheConfig.paper_split(2 * MB, 8 * MB, policy=Policy.CBLRU)
    manager = prepare_cached_manager(index, log, cfg, telemetry=tel)
    run_cached(index, log, cfg, manager=manager)
    tel.timeline.finish()
    tel.close()
    live = list(tel.timeline.windows)
    assert len(live) > 1
    assert (format_top_frame("run", load_timeline_jsonl(path).windows)
            == format_top_frame("run", live))


def test_frame_reads_the_manifests_of_a_running_run(tmp_path, capsys):
    """Mid-run (no footer, no metrics.json) ``top DIR`` lists the
    manifests appended to incidents.jsonl so far, as the recorder holds
    them."""
    tel = Telemetry(trace=False, audit=False, out_dir=tmp_path)
    timeline = tel.attach_timeline(window_us=100.0)
    flight = FlightRecorder(tel, out_dir=tmp_path).arm()
    windows = [_window(i, queue_depth=float(i if i < 8 else 0))
               for i in range(12)]
    for rec in windows:  # as the timeline closes a window
        timeline._stream.write(rec)
        timeline._stream.flush()
        flight._on_window(rec)
    assert len(flight.incidents) == 1
    assert main(["top", str(tmp_path), "--once"]) == 0
    assert capsys.readouterr().out == format_top_frame(
        str(tmp_path), windows, flight.incidents) + "\n"


def test_status_from_dir_without_timeline(tmp_path, capsys):
    assert main(["top", str(tmp_path), "--once"]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "not a usable timeline" in captured.err
    assert "--timeline" in captured.err


def test_status_derives_only_windows_without_a_derived_block(monkeypatch):
    """An empty ``derived`` block is a derived block (a window whose
    sources were all absent): the frame reads it as it is and derives
    only a record that carries none."""
    calls = []
    derive = timeline_module.derive_window

    def counting(rec):
        calls.append(rec["window"])
        return derive(rec)

    monkeypatch.setattr(timeline_module, "derive_window", counting)
    bare = _window(2)
    del bare["derived"]
    frame = format_top_frame("", [_window(0), _window(1, hit_ratio=0.5),
                                  bare])
    assert set(calls) == {2}
    assert "  hit_ratio        ·▄· 50.0%" in frame.splitlines()
