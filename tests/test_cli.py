"""CLI subcommands (invoked in-process)."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_corpus_command(capsys):
    rc = main(["corpus", "--docs", "20000", "--vocab", "2000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "corpus statistics" in out
    assert "20,000" in out


def test_trace_command_writes_spc(tmp_path, capsys):
    path = tmp_path / "t.spc"
    rc = main(["trace", "--requests", "500", "--out", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert path.exists()
    assert "reads=" in out


def test_trace_command_writes_msr_and_diskmon(tmp_path, capsys):
    for ext in ("csv", "dmn"):
        path = tmp_path / f"t.{ext}"
        assert main(["trace", "--requests", "200", "--out", str(path)]) == 0
        assert path.exists()
    capsys.readouterr()


def test_trace_command_rejects_unknown_extension(tmp_path):
    with pytest.raises(SystemExit):
        main(["trace", "--requests", "100", "--out", str(tmp_path / "t.xyz")])


def test_analyze_command_all_formats(tmp_path, capsys):
    main(["trace", "--requests", "300", "--out", str(tmp_path / "t.spc")])
    main(["trace", "--requests", "300", "--out", str(tmp_path / "t.csv")])
    main(["trace", "--requests", "300", "--out", str(tmp_path / "t.dmn")])
    capsys.readouterr()
    for fmt, ext in (("spc", "spc"), ("msr", "csv"), ("diskmon", "dmn")):
        rc = main(["analyze", str(tmp_path / f"t.{ext}"), "--format", fmt])
        out = capsys.readouterr().out
        assert rc == 0
        assert "n=300" in out


def test_run_command_basic(capsys):
    rc = main(["run", "--policy", "cblru", "--docs", "100000",
               "--queries", "150", "--mem-mb", "2", "--ssd-mb", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "CBLRU" in out
    assert "mean response" in out


def test_run_command_three_level_and_ttl(capsys):
    rc = main(["run", "--policy", "lru", "--docs", "100000",
               "--queries", "150", "--mem-mb", "2", "--ssd-mb", "8",
               "--three-level", "--ttl-ms", "1.0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "intersection hits" in out
    assert "expired" in out


def test_run_command_cbslru_warms_static(capsys):
    rc = main(["run", "--policy", "cbslru", "--docs", "100000",
               "--queries", "200", "--mem-mb", "2", "--ssd-mb", "8"])
    assert rc == 0
    capsys.readouterr()


def test_run_command_telemetry_writes_valid_dir(tmp_path, capsys):
    from repro.obs import validate_telemetry_dir

    out_dir = tmp_path / "tel"
    rc = main(["run", "--policy", "cbslru", "--docs", "100000",
               "--queries", "200", "--mem-mb", "2", "--ssd-mb", "8",
               "--telemetry", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "per-stage latency" in out
    assert "wrote" in out
    counts = validate_telemetry_dir(out_dir)
    assert counts["spans"] > 0
    assert counts["metrics"] > 0


def test_report_command_reads_telemetry_dir(tmp_path, capsys):
    out_dir = tmp_path / "tel"
    main(["run", "--policy", "lru", "--docs", "100000", "--queries", "150",
          "--mem-mb", "2", "--ssd-mb", "8", "--telemetry", str(out_dir)])
    capsys.readouterr()
    rc = main(["report", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "per-stage latency" in out
    assert "spans" in out


def test_report_command_fails_cleanly_on_missing_dir(tmp_path, capsys):
    rc = main(["report", str(tmp_path / "nothing")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "not a usable telemetry directory" in captured.err
    assert len(captured.err.strip().splitlines()) == 1  # one line, no traceback


def test_report_command_fails_cleanly_on_empty_dir(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main(["report", str(empty)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not a usable telemetry directory" in captured.err


def test_compare_dirs_fails_cleanly_on_bad_dir(tmp_path, capsys):
    rc = main(["compare", str(tmp_path / "nothing")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not a usable telemetry directory" in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_compare_command_prints_stage_breakdown(capsys):
    rc = main(["compare", "--docs", "100000", "--queries", "150",
               "--mem-mb", "2", "--ssd-mb", "8"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "per-stage latency by policy" in out
    stage_section = out.split("per-stage latency by policy", 1)[1]
    for stage in ("l1", "l2", "hdd"):
        assert stage in stage_section
    assert "hit ratio over time" in out  # the per-policy timeline table


def test_compare_command_json_payload(capsys):
    import json

    argv = ["compare", "--json", "--docs", "100000", "--queries", "150",
            "--mem-mb", "2", "--ssd-mb", "8"]
    rc = main(argv)
    out = capsys.readouterr().out
    assert rc == 0
    # Nothing host-timed is in the payload: a second run prints the
    # same text byte for byte.
    assert main(argv) == 0
    assert capsys.readouterr().out == out
    payload = json.loads(out.split("wrote report", 1)[0])
    assert payload["schema"] == "repro.compare/v1"
    assert set(payload["policies"]) == {"lru", "cblru", "cbslru"}
    for entry in payload["policies"].values():
        assert entry["queries"] == 150
        assert "stage_latency_us" in entry
        assert "ssd-cache" in entry["flash"]
        assert entry["flash"]["ssd-cache"]["flash_erases_total"] >= 0
    for entry in payload["host"].values():
        assert set(entry) == {"hot_ops"}
    assert set(payload["timeline"]) == {"lru", "cblru", "cbslru"}
    for entry in payload["timeline"].values():
        assert entry["windows"] > 0
        assert entry["hit_ratio"] and entry["p99_response_us"]


def test_run_telemetry_reports_flash_and_streams_spans(tmp_path, capsys):
    out_dir = tmp_path / "tel"
    rc = main(["run", "--policy", "cblru", "--docs", "100000",
               "--queries", "200", "--mem-mb", "2", "--ssd-mb", "8",
               "--telemetry", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "flash devices" in out
    assert "audit records" in out
    # Spans were streamed to disk during the run, not buffered.
    spans = (out_dir / "spans.jsonl").read_text().splitlines()
    assert len(spans) > 0
    assert (out_dir / "audit.jsonl").exists()


def test_explain_command_reconstructs_a_term(tmp_path, capsys):
    from repro.obs import load_audit_jsonl

    out_dir = tmp_path / "tel"
    main(["run", "--policy", "cblru", "--docs", "100000", "--queries", "200",
          "--mem-mb", "2", "--ssd-mb", "8", "--telemetry", str(out_dir)])
    capsys.readouterr()
    records = load_audit_jsonl(out_dir / "audit.jsonl")
    term = next(r["key"] for r in records if r["type"] == "list.select")
    rc = main(["explain", str(out_dir), "--term", str(term)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"audit trail for list {term}" in out
    assert "EV=" in out
    assert "verdict:" in out


def test_explain_command_unknown_subject_exits_nonzero(tmp_path, capsys):
    out_dir = tmp_path / "tel"
    main(["run", "--policy", "cblru", "--docs", "100000", "--queries", "150",
          "--mem-mb", "2", "--ssd-mb", "8", "--telemetry", str(out_dir)])
    capsys.readouterr()
    rc = main(["explain", str(out_dir), "--gc-block", "99999999"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "no records" in out


def test_explain_command_requires_audit_file(tmp_path, capsys):
    rc = main(["explain", str(tmp_path), "--term", "1"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "no audit trail" in err


def _run_with_timeline(tmp_path, queries="400"):
    out_dir = tmp_path / "tel"
    main(["run", "--policy", "cblru", "--docs", "100000",
          "--queries", queries, "--mem-mb", "2", "--ssd-mb", "8",
          "--telemetry", str(out_dir), "--timeline", "--window-ms", "20"])
    return out_dir


def test_run_timeline_requires_telemetry(capsys):
    rc = main(["run", "--queries", "10", "--timeline"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "--timeline requires --telemetry" in captured.err


def test_run_timeline_streams_schema_valid_jsonl(tmp_path, capsys):
    from repro.obs import load_timeline_jsonl, validate_telemetry_dir

    out_dir = _run_with_timeline(tmp_path)
    out = capsys.readouterr().out
    assert "timeline:" in out
    counts = validate_telemetry_dir(out_dir)
    assert counts["timeline_windows"] > 0
    tl = load_timeline_jsonl(out_dir / "timeline.jsonl")
    assert tl.window_us == 20_000.0
    assert tl.windows


def test_timeline_command_renders_sparklines_and_verdicts(tmp_path, capsys):
    out_dir = _run_with_timeline(tmp_path)
    capsys.readouterr()
    rc = main(["timeline", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "timeline:" in out
    assert "hit_ratio" in out
    assert "SLOs:" in out
    assert "anomalies" in out
    # Custom SLO specs flow through the grammar.
    rc = main(["timeline", str(out_dir), "--slo", "queries > 0 @ 50%"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "queries > 0 @ 50%" in out


def test_timeline_command_fails_cleanly_without_timeline(tmp_path, capsys):
    rc = main(["timeline", str(tmp_path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not a usable timeline" in captured.err


def test_timeline_command_rejects_bad_slo(tmp_path, capsys):
    out_dir = _run_with_timeline(tmp_path)
    capsys.readouterr()
    rc = main(["timeline", str(out_dir), "--slo", "not an slo"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "bad SLO spec" in captured.err


def test_compare_dirs_mode_tabulates_saved_runs(tmp_path, capsys):
    out_dir = _run_with_timeline(tmp_path)
    capsys.readouterr()
    rc = main(["compare", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "telemetry dirs" in out
    assert str(out_dir) in out


def test_explain_query_chains_exemplar_to_span_and_audit(tmp_path, capsys):
    import json

    out_dir = _run_with_timeline(tmp_path, queries="600")
    capsys.readouterr()
    exemplars = [
        json.loads(line)
        for line in (out_dir / "timeline.jsonl").read_text().splitlines()
        if json.loads(line).get("type") == "exemplar"
    ]
    tied = [e for e in exemplars if e.get("query_id") is not None]
    assert tied, "run produced no query-tied exemplars"
    qid = tied[-1]["query_id"]
    rc = main(["explain", str(out_dir), "--query", str(qid)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"query {qid}:" in out
    assert "exemplar:" in out
    assert "query [" in out  # the span tree, rooted at the query span

    rc = main(["explain", str(out_dir), "--query", "999999"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "no tail exemplars" in out


def test_explain_query_requires_timeline_dir(tmp_path, capsys):
    rc = main(["explain", str(tmp_path / "nope"), "--query", "1"])
    captured = capsys.readouterr()
    assert rc == 2
    assert "telemetry directory" in captured.err


def _run_open_loop_telemetry(tmp_path):
    out_dir = tmp_path / "tel"
    rc = main(["run", "--policy", "cblru", "--docs", "100000",
               "--queries", "200", "--mem-mb", "2", "--ssd-mb", "8",
               "--arrival", "poisson", "--rate-qps", "60",
               "--concurrency", "4", "--telemetry", str(out_dir)])
    assert rc == 0
    return out_dir


def test_run_open_loop_streams_blame_and_blame_command(tmp_path, capsys):
    from repro.obs import validate_blame_jsonl

    out_dir = _run_open_loop_telemetry(tmp_path)
    out = capsys.readouterr().out
    assert "blame" in out
    counts = validate_blame_jsonl(out_dir / "blame.jsonl")
    assert counts["task"] >= 200  # every admitted query left a record
    assert counts["footer"] == 1

    rc = main(["blame", str(out_dir), "--top", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "capacity model" in out
    assert "Little's-law self-check: ok" in out
    assert "slowest 2 queries" in out

    rc = main(["blame", str(out_dir), "--query", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "qid 0" in out
    assert "residual 0.000 us" in out


def test_closed_loop_clients_are_admitted_qid_tagged_queries(tmp_path,
                                                             capsys):
    """--arrival closed --concurrency N goes through the one kernel-mode
    driver: one blame record per served query (not per client), a knee
    at the served throughput (the HDD saturates), and qid tags that
    `explain --query` can match."""
    import re

    from repro.obs import load_blame_jsonl

    out_dir = tmp_path / "tel"
    rc = main(["run", "--policy", "cblru", "--docs", "20000",
               "--queries", "300", "--mem-mb", "2", "--ssd-mb", "8",
               "--arrival", "closed", "--concurrency", "4",
               "--telemetry", str(out_dir), "--timeline"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "closed-loop, 4 clients" in out
    assert "300 / 300 / 0" in out  # arrived / completed / shed

    log = load_blame_jsonl(out_dir / "blame.jsonl")
    footer = log.footer
    assert footer["arrived"] == footer["completed"] == 300
    served_qps = 300 / ((footer["end_us"] - footer["start_us"]) / 1e6)

    rc = main(["blame", str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[0] == "blame: 300 queries"
    knee = float(re.search(r"knee ~([0-9.]+) qps", out).group(1))
    assert knee == pytest.approx(served_qps, rel=0.05)

    qid = next(r["qid"] for r in log.records
               if r.get("type") == "task" and r.get("qid") is not None
               and r["name"] == "q150")
    rc = main(["explain", str(out_dir), "--query", str(qid)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kernel blame (wait vs service per resource):" in out
    assert f"qid {qid}" in out


def test_blame_command_fails_cleanly_without_blame_file(tmp_path, capsys):
    rc = main(["blame", str(tmp_path / "nothing")])
    captured = capsys.readouterr()
    assert rc == 2
    assert "not a usable blame file" in captured.err


def test_report_command_openmetrics_format(tmp_path, capsys):
    out_dir = tmp_path / "tel"
    main(["run", "--policy", "lru", "--docs", "100000", "--queries", "150",
          "--mem-mb", "2", "--ssd-mb", "8", "--telemetry", str(out_dir)])
    capsys.readouterr()
    rc = main(["report", str(out_dir), "--format", "openmetrics"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "# TYPE queries counter" in out
    assert "queries_total" in out
    assert out.endswith("# EOF\n")


def test_bench_command_writes_document_and_gates(tmp_path, capsys):
    import json

    from repro.bench import load_bench

    out = tmp_path / "BENCH_test.json"
    rc = main(["bench", "--suite", "smoke", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert rc == 0
    assert "wrote" in stdout
    doc = load_bench(out)
    assert set(doc["scenarios"]) == {"lru-smoke", "cblru-smoke",
                                     "cbslru-smoke"}

    # Inject a regression into the baseline: pretend it was much faster.
    tampered = tmp_path / "tampered.json"
    bad = json.loads(out.read_text())
    for entry in bad["scenarios"].values():
        entry["metrics"]["mean_response_ms"] *= 0.5
    tampered.write_text(json.dumps(bad))
    rc = main(["bench", "--suite", "smoke", "--out",
               str(tmp_path / "BENCH_again.json"), "--against",
               str(tampered)])
    stdout = capsys.readouterr().out
    assert rc == 1
    assert "regression" in stdout
    assert "mean_response_ms rose" in stdout


def test_bench_against_validates_baseline_before_running(tmp_path, capsys):
    out = tmp_path / "BENCH_out.json"
    not_a_bench = tmp_path / "other.json"
    not_a_bench.write_text('{"schema": "other/v1"}')
    for baseline in (tmp_path / "missing.json", not_a_bench):
        rc = main(["bench", "--suite", "smoke", "--out", str(out),
                   "--against", str(baseline)])
        captured = capsys.readouterr()
        assert rc == 2
        assert "not a usable bench baseline" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert "running" not in captured.out  # no scenario was run
        assert not out.exists()
