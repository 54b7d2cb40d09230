"""The live observability plane: HTTP endpoints, top frames, post-hoc."""

import json
from urllib.request import urlopen

import pytest

from repro.cli import main
from repro.obs import (
    LIVE_SCHEMA,
    LiveServer,
    Telemetry,
    fetch_status,
    format_top_frame,
    status_from_dir,
)
from repro.obs.live import OPENMETRICS_CONTENT_TYPE


def _window(i, **derived):
    return {"type": "window", "window": i, "start_us": i * 100.0,
            "end_us": (i + 1) * 100.0, "counters": {}, "gauges": {},
            "histograms": {}, "derived": derived}


@pytest.fixture
def live():
    tel = Telemetry(trace=False, audit=False)
    tel.attach_timeline(window_us=100.0)
    tel.registry.counter("queries_total").inc(7)
    server = LiveServer(tel, port=0, run_info={"policy": "lru"}).start()
    for i in range(10):
        server._on_window(_window(i, hit_ratio=0.5, queue_depth=float(i)))
    yield server
    server.close()


def test_live_server_requires_timeline():
    tel = Telemetry(trace=False, audit=False)
    with pytest.raises(RuntimeError, match="timeline"):
        LiveServer(tel).start()


def test_metrics_endpoint_serves_openmetrics(live):
    with urlopen(f"{live.url()}/metrics") as resp:
        assert resp.headers["Content-Type"] == OPENMETRICS_CONTENT_TYPE
        body = resp.read().decode()
    assert "queries_total 7" in body
    assert body.rstrip().endswith("# EOF")


def test_windows_endpoint_streams_ndjson(live):
    with urlopen(f"{live.url()}/windows?since=6") as resp:
        lines = [json.loads(line) for line in resp.read().splitlines()]
    assert lines[0]["type"] == "header"
    assert [rec["window"] for rec in lines[1:]] == [7, 8, 9]


def test_windows_endpoint_rejects_bad_since(live):
    with pytest.raises(Exception) as exc_info:
        urlopen(f"{live.url()}/windows?since=nope")
    assert getattr(exc_info.value, "code", None) == 400


def test_status_endpoint_and_fetch_status(live):
    status = fetch_status(str(live.port))
    assert status["schema"] == LIVE_SCHEMA
    assert status["run"] == {"policy": "lru"}
    assert status["windows_seen"] == 10
    assert [w["window"] for w in status["recent"]] == list(range(10))
    assert {r["slo"] for r in status["slo"]}
    assert status["incidents"] == {"open": False, "dumped": []}
    # queue_depth rose 9 windows in a row: anomalies must be visible.
    assert status["anomalies"]["critical"] >= 1


def test_unknown_path_is_404(live):
    with pytest.raises(Exception) as exc_info:
        urlopen(f"{live.url()}/nope")
    assert getattr(exc_info.value, "code", None) == 404


def test_format_top_frame_renders_all_sections(live):
    frame = format_top_frame(live.status(), width=20)
    assert "repro top" in frame
    assert "windows=10" in frame
    assert "hit_ratio" in frame and "queue_depth" in frame
    assert "anomalies:" in frame
    assert "incidents:" in frame


def test_status_from_dir_matches_live_shape(tmp_path, capsys):
    out = tmp_path / "tel"
    assert main(["run", "--policy", "lru", "--docs", "5000",
                 "--queries", "150", "--mem-mb", "2", "--ssd-mb", "8",
                 "--arrival", "poisson", "--rate-qps", "500",
                 "--concurrency", "2", "--max-queue", "16",
                 "--telemetry", str(out), "--timeline",
                 "--window-ms", "20"]) == 0
    capsys.readouterr()
    status = status_from_dir(out)
    assert status["schema"] == LIVE_SCHEMA
    assert status["windows_seen"] > 0
    assert status["recent"][0]["derived"]
    frame = format_top_frame(status)
    assert "repro top" in frame


def test_status_from_dir_without_timeline(tmp_path):
    with pytest.raises(ValueError, match="no timeline"):
        status_from_dir(tmp_path)


def test_status_derives_only_windows_without_a_derived_block(monkeypatch):
    """An empty ``derived`` block is a derived block (a window whose
    sources were all absent): the status document reads it as it is and
    derives only a record that carries none."""
    from repro.obs import live as live_module
    from repro.obs.timeline import derive_window

    calls = []

    def counting(rec):
        calls.append(rec["window"])
        return derive_window(rec)

    monkeypatch.setattr(live_module, "derive_window", counting)
    bare = _window(2)
    del bare["derived"]
    recent = [_window(0), _window(1, hit_ratio=0.5), bare]
    doc = live_module._status_doc({}, 0.0, 100.0, 3, recent, [], [], False,
                                  [])
    assert calls == [2]
    assert [r["derived"] for r in doc["recent"]] == [{}, {"hit_ratio": 0.5},
                                                     {}]
