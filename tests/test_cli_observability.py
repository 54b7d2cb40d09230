"""CLI surface of the observability plane: graceful errors,
``top`` (on a finished run and following a running one),
``incidents`` and ``explain --incident`` (their output pinned to what
the per-incident bundles printed)."""

import io
import json
import re
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs import FlightRecorder, load_blame_jsonl, load_incidents


_SATURATED = ["run", "--policy", "cbslru", "--docs", "20000",
              "--queries", "600", "--mem-mb", "2", "--ssd-mb", "8",
              "--arrival", "poisson", "--rate-qps", "3000",
              "--concurrency", "2", "--max-queue", "64",
              "--timeline", "--window-ms", "10"]


@pytest.fixture(scope="module")
def knee_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("knee") / "tel"
    assert main(_SATURATED + ["--telemetry", str(out)]) == 0
    assert load_incidents(out).incidents
    return out


def test_every_knee_query_has_its_own_qid(knee_dir):
    """Queries in flight together take different qids: the past-knee
    run's blame file holds as many distinct qids as top-level tasks."""
    tasks = [r for r in load_blame_jsonl(str(knee_dir / "blame.jsonl")).records
             if r["type"] == "task" and r["parent"] is None]
    qids = {r["qid"] for r in tasks}
    assert None not in qids
    assert len(qids) == len(tasks) > 0


# -- graceful errors on missing/partial telemetry dirs -----------------------

def test_explain_missing_audit_is_clean_error(tmp_path, capsys):
    rc = main(["explain", str(tmp_path), "--term", "3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no audit trail" in err


def test_explain_corrupt_audit_is_clean_error(tmp_path, capsys):
    (tmp_path / "audit.jsonl").write_text("{bad\n{worse\n")
    rc = main(["explain", str(tmp_path), "--term", "3"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not a usable audit trail" in err


def test_explain_query_survives_torn_spans_and_rejects_corruption(
        tmp_path, capsys):
    out = tmp_path / "tel"
    assert main(["run", "--policy", "cblru", "--docs", "100000",
                 "--queries", "600", "--mem-mb", "2", "--ssd-mb", "8",
                 "--telemetry", str(out), "--timeline",
                 "--window-ms", "20"]) == 0
    timeline = (out / "timeline.jsonl").read_text()
    qid = [rec["query_id"] for rec in map(json.loads, timeline.splitlines())
           if rec.get("type") == "exemplar"
           and rec.get("query_id") is not None][-1]
    spans = (out / "spans.jsonl").read_text()
    capsys.readouterr()

    # A run killed mid-write: the torn final record is skipped and counted.
    (out / "spans.jsonl").write_text(spans + '{"span_id": 99999, "parent')
    rc = main(["explain", str(out), "--query", str(qid)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "query [" in captured.out  # the span tree still prints
    assert "skipped 1 torn trailing record" in captured.err

    # Corruption anywhere else is a real error: one line, no traceback.
    (out / "spans.jsonl").write_text("{bad\n" + spans)
    rc = main(["explain", str(out), "--query", str(qid)])
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out
    assert "not a usable telemetry directory" in captured.err
    assert len(captured.err.strip().splitlines()) == 1

    (out / "spans.jsonl").write_text(spans)
    (out / "timeline.jsonl").write_text("{bad\n" + timeline)
    rc = main(["explain", str(out), "--query", str(qid)])
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out
    assert len(captured.err.strip().splitlines()) == 1


def test_torn_tails_of_every_jsonl_file_are_counted_and_reported(
        tmp_path, capsys):
    # What the observer skips is itself reported -- for all four JSONL
    # files, not just spans.jsonl.
    from repro.obs import load_telemetry_dir

    out = tmp_path / "tel"
    assert main(["run", "--policy", "cblru", "--docs", "20000",
                 "--queries", "200", "--mem-mb", "2", "--ssd-mb", "8",
                 "--arrival", "poisson", "--rate-qps", "60",
                 "--concurrency", "2", "--telemetry", str(out),
                 "--timeline", "--no-flight"]) == 0
    whole = load_telemetry_dir(out)
    assert whole.torn_tail == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert "trailing record" not in capsys.readouterr().err

    names = ("blame.jsonl", "audit.jsonl", "timeline.jsonl")
    for name in names:
        path = out / name
        path.write_bytes(path.read_bytes()[:-25])
    cut = load_telemetry_dir(out)
    assert cut.torn_tail == 3
    assert cut.blame.footer is None  # the footer was the blame tail
    assert cut.blame.records == whole.blame.records
    assert len(cut.audit.records) == len(whole.audit.records) - 1
    assert cut.timeline.windows == whole.timeline.windows  # footer lost
    assert main(["report", str(out)]) == 0
    err = capsys.readouterr().err
    for name in names:  # one note per file that lost its tail
        assert (f"note: {out / name}: skipped 1 torn trailing record(s)"
                in err)


def test_timeline_missing_file_is_clean_error(tmp_path, capsys):
    rc = main(["timeline", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not a usable timeline" in err


def test_blame_missing_file_is_clean_error(tmp_path, capsys):
    rc = main(["blame", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not a usable blame file" in err


def test_explain_incident_on_empty_dir_is_clean_error(tmp_path, capsys):
    rc = main(["explain", str(tmp_path), "--incident", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no incident-1" in err and "have: none" in err


def test_top_on_missing_dir_is_clean_error(tmp_path, capsys):
    rc = main(["top", str(tmp_path / "nope"), "--once"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


def test_incidents_on_missing_dir_is_clean_error(tmp_path, capsys):
    rc = main(["incidents", str(tmp_path / "nope")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "not a directory" in err


# -- the end-to-end plane over one saturated run -----------------------------

def test_incidents_command_lists_and_requires(knee_dir, capsys):
    rc = main(["incidents", str(knee_dir), "--require", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "incident-1" in out and "[critical]" in out

    rc = main(["incidents", str(knee_dir), "--require", "999"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "need >= 999" in captured.err


def test_incidents_command_json(knee_dir, capsys):
    rc = main(["incidents", str(knee_dir), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["valid"] >= 1
    assert doc["bundles"][0]["valid"] is True
    assert doc["bundles"][0]["manifest"]["trigger"]["severity"] == "critical"


def test_incident_severity_sets_the_trigger(tmp_path, capsys):
    """``--incident-severity warn`` opens incidents on warn anomalies (the
    default run above triggers on critical ones); an unknown severity is
    a usage error before DIR is created."""
    out = tmp_path / "tel"
    assert main(_SATURATED + ["--incident-severity", "warn",
                              "--telemetry", str(out)]) == 0
    incidents = load_incidents(out).incidents
    assert incidents
    assert {inc.manifest["trigger"]["severity"]
            for inc in incidents} == {"warn"}
    bad = tmp_path / "bad"
    with pytest.raises(SystemExit) as exc:
        main(_SATURATED + ["--incident-severity", "notice",
                           "--telemetry", str(bad)])
    assert exc.value.code == 2
    assert "--incident-severity" in capsys.readouterr().err
    assert not bad.exists()


def test_incidents_command_empty_dir(tmp_path, capsys):
    rc = main(["incidents", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no incident bundles" in out


def _recorded() -> dict:
    return json.loads((Path(__file__).parent / "fixtures"
                       / "incidents_knee.json").read_text())


def test_incident_readers_print_what_the_bundles_printed(knee_dir, capsys):
    """``incidents`` and ``explain --incident 1`` print, byte for byte,
    what they printed when each incident was a directory of copies; the
    JSON differs only in the manifest's schema and its dropped counts."""
    recorded = _recorded()

    def run(*argv):
        assert main([argv[0], str(knee_dir), *argv[1:]]) == 0
        return capsys.readouterr().out.replace(str(knee_dir), "<DIR>")

    assert run("incidents") == recorded["incidents"]
    assert run("explain", "--incident", "1") == \
        recorded["explain_incident_1"]
    assert "12w/50s/8q/191a" in recorded["incidents"]
    parent = json.loads(recorded["incidents_json"])
    for bundle in parent["bundles"]:
        bundle["manifest"]["schema"] = "repro.obs.incident/v2"
        del bundle["manifest"]["counts"]
    assert run("incidents", "--json") == json.dumps(parent, indent=1) + "\n"


def test_explain_incident_walks_bundle(knee_dir, capsys):
    rc = main(["explain", str(knee_dir), "--incident", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "incident 1:" in out
    assert "config fingerprint:" in out
    assert "SLO state at capture:" in out
    assert "evidence:" in out


def test_top_once_from_dir(knee_dir, capsys):
    rc = main(["top", str(knee_dir), "--once"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "repro top" in out
    assert "incidents:" in out and "dumped" in out


def test_run_summary_mentions_incidents(knee_dir, tmp_path, capsys):
    # The knee fixture already ran; re-run a quiet scenario to see the
    # no-incident summary line too.
    out = tmp_path / "quiet"
    rc = main(["run", "--policy", "lru", "--docs", "2000", "--queries",
               "80", "--mem-mb", "4", "--ssd-mb", "8", "--arrival",
               "poisson", "--rate-qps", "50", "--concurrency", "2",
               "--telemetry", str(out), "--timeline", "--window-ms", "50"])
    text = capsys.readouterr().out
    assert rc == 0
    assert "flight recorder: armed, no incidents" in text


def test_top_on_a_port_is_an_error(capsys):
    rc = main(["top", "8080", "--once"])
    captured = capsys.readouterr()
    assert rc == 2 and not captured.out
    assert captured.err.startswith("error: 8080: not a telemetry directory")
    assert len(captured.err.strip().splitlines()) == 1


def test_top_reads_a_torn_manifest_and_a_torn_timeline_tail(
        knee_dir, tmp_path, capsys):
    out = tmp_path / "tel"
    shutil.copytree(knee_dir, out)
    # The run was cut while writing its first manifest.
    manifest = out / "incidents.jsonl"
    manifest.write_text(manifest.read_text()[:40])
    timeline = out / "timeline.jsonl"
    timeline.write_bytes(timeline.read_bytes()[:-25])
    rc = main(["top", str(out), "--once"])
    captured = capsys.readouterr()
    assert rc == 0
    assert "incidents: 0 dumped" in captured.out
    assert (f"note: {manifest}: skipped 1 torn trailing record"
            in captured.err)
    assert f"note: {timeline}: skipped 1 torn trailing record" in captured.err
    assert "Traceback" not in captured.err


def test_top_keeps_following_until_the_timeline_reads(
        knee_dir, tmp_path, monkeypatch, capsys):
    """Follow mode outlives a frame it cannot read yet (the run has not
    opened timeline.jsonl)."""
    import repro.cli

    out = tmp_path / "tel"
    out.mkdir()
    naps = []

    def sleep(seconds):
        naps.append(seconds)
        if len(naps) == 1:
            shutil.copy(knee_dir / "timeline.jsonl", out)
        else:
            raise KeyboardInterrupt

    monkeypatch.setattr(repro.cli.time, "sleep", sleep)
    assert main(["top", str(out), "--interval", "0.5"]) == 0
    first, second = capsys.readouterr().out.split("\x1b[2J\x1b[H")[1:]
    assert first.startswith(f"error: {out / 'timeline.jsonl'}: not a usable")
    assert second.startswith(f"repro top — {out}")
    assert naps == [0.5, 0.5]


def _comparable(frame: str) -> str:
    """A top frame without its ``t=`` field and incidents-line suffix."""
    frame = re.sub(r"  t=\S+", "", frame.rstrip("\n"))
    return re.sub(r"(incidents: \d+ dumped).*", r"\1", frame)


def test_top_follows_a_running_run(tmp_path, monkeypatch):
    """Mid-run, with no metrics.json yet, ``top DIR`` draws from the
    streamed windows and manifests the frame the HTTP plane served at the
    same window (recorded from ``LiveServer.status()`` before it was
    deleted)."""
    recorded = json.loads((Path(__file__).parent / "fixtures"
                           / "top_frames_live.json").read_text())["frames"]
    out = tmp_path / "tel"
    frames = {}
    arm = FlightRecorder.arm

    def follow(rec):
        if str(rec["window"]) in recorded:
            assert not (out / "metrics.json").exists()
            with redirect_stdout(io.StringIO()) as text:
                assert main(["top", str(out), "--once"]) == 0
            frames[str(rec["window"])] = text.getvalue()

    def arm_then_follow(self):
        armed = arm(self)
        self.telemetry.timeline.add_window_callback(follow)
        return armed

    monkeypatch.setattr(FlightRecorder, "arm", arm_then_follow)
    with redirect_stdout(io.StringIO()):
        assert main(_SATURATED + ["--telemetry", str(out)]) == 0
    assert frames.keys() == recorded.keys()
    for window, frame in recorded.items():
        assert (_comparable(frames[window]).replace(str(out), "<DIR>")
                == _comparable(frame)), window
