"""CLI surface of the observability plane: graceful errors, rotation,
``top``/``incidents``/``explain --incident``, and the live plane flag."""

import json
import os

import pytest

from repro.cli import main
from repro.obs import list_incidents


_SATURATED = ["run", "--policy", "cbslru", "--docs", "20000",
              "--queries", "600", "--mem-mb", "2", "--ssd-mb", "8",
              "--arrival", "poisson", "--rate-qps", "3000",
              "--concurrency", "2", "--max-queue", "64",
              "--timeline", "--window-ms", "10"]


@pytest.fixture(scope="module")
def knee_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("knee") / "tel"
    assert main(_SATURATED + ["--telemetry", str(out)]) == 0
    assert list_incidents(out)
    return out


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
    assert "skipped 1 torn trailing record" in captured.out

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
    from repro.obs import validate_telemetry_dir

    out = tmp_path / "tel"
    assert main(["run", "--policy", "cblru", "--docs", "20000",
                 "--queries", "200", "--mem-mb", "2", "--ssd-mb", "8",
                 "--arrival", "poisson", "--rate-qps", "60",
                 "--concurrency", "2", "--telemetry", str(out),
                 "--timeline", "--no-flight"]) == 0
    whole = validate_telemetry_dir(out)
    assert "torn_tail" not in whole
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    assert "trailing record" not in capsys.readouterr().out

    for name in ("blame.jsonl", "audit.jsonl", "timeline.jsonl"):
        path = out / name
        path.write_bytes(path.read_bytes()[:-25])
    cut = validate_telemetry_dir(out)
    assert cut["torn_tail"] == 3
    assert cut["blame_records"] == whole["blame_records"] - 1
    assert cut["audit_records"] == whole["audit_records"] - 1
    assert cut["timeline_windows"] == whole["timeline_windows"]  # footer lost
    assert main(["report", str(out)]) == 0
    assert "skipped 3 torn trailing record(s)" in capsys.readouterr().out


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


# -- run-flag validation -----------------------------------------------------

def test_live_port_requires_timeline(capsys):
    rc = main(["run", "--live-port", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--timeline" in err


def test_max_windows_requires_timeline(capsys):
    rc = main(["run", "--max-windows", "10"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "--timeline" in err


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


def test_incidents_command_empty_dir(tmp_path, capsys):
    rc = main(["incidents", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no incident bundles" in out


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


def test_run_with_live_port_prints_url(tmp_path, capsys):
    out = tmp_path / "tel"
    rc = main(["run", "--policy", "lru", "--docs", "2000", "--queries",
               "60", "--mem-mb", "4", "--ssd-mb", "8", "--arrival",
               "poisson", "--rate-qps", "100", "--concurrency", "2",
               "--telemetry", str(out), "--timeline", "--window-ms", "50",
               "--live-port", "0"])
    text = capsys.readouterr().out
    assert rc == 0
    assert "live plane at http://127.0.0.1:" in text


# -- retention/rotation ------------------------------------------------------

def test_max_windows_rotates_and_loads(tmp_path, capsys):
    out = tmp_path / "tel"
    rc = main(["run", "--policy", "lru", "--docs", "5000", "--queries",
               "200", "--mem-mb", "2", "--ssd-mb", "8", "--arrival",
               "poisson", "--rate-qps", "1000", "--concurrency", "2",
               "--max-queue", "16", "--telemetry", str(out), "--timeline",
               "--window-ms", "5", "--max-windows", "10",
               "--max-blame-records", "100", "--no-flight"])
    capsys.readouterr()
    assert rc == 0
    assert os.path.exists(out / "timeline.jsonl.1")
    assert os.path.exists(out / "blame.jsonl.1")

    from repro.obs import (load_blame_jsonl, load_timeline_jsonl,
                           validate_blame_jsonl, validate_timeline_jsonl)

    tl = load_timeline_jsonl(out / "timeline.jsonl")
    # At most two generations of <= max_windows each survive on disk.
    assert 0 < len(tl.windows) <= 20
    windows = [w["window"] for w in tl.windows]
    assert windows == sorted(windows)
    validate_timeline_jsonl(out / "timeline.jsonl")
    blame = load_blame_jsonl(out / "blame.jsonl")
    assert 0 < len(blame.records) <= 200
    validate_blame_jsonl(out / "blame.jsonl")

    # The downstream tools accept a rotated dir end to end.
    assert main(["timeline", str(out)]) == 0
    assert main(["blame", str(out)]) in (0, 1)
    capsys.readouterr()
