"""Torn-tail tolerance of the JSONL readers.

A crash mid-write can truncate the final line of a streamed JSONL file.
Every reader skips such a torn tail with a counted loss instead of
raising; corruption anywhere *else* still raises.
"""

import json

import pytest

from repro.obs import read_jsonl
from repro.obs._jsonl import JsonlWriter, write_jsonl
from repro.obs.audit import load_audit_jsonl
from repro.obs.blame import BLAME_SCHEMA, load_blame_jsonl
from repro.obs.timeline import TIMELINE_SCHEMA, load_timeline_jsonl
from repro.obs.tracer import load_spans_jsonl


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def test_read_jsonl_clean(tmp_path):
    path = tmp_path / "x.jsonl"
    _write_lines(path, [json.dumps({"a": i}) for i in range(3)])
    records, torn = read_jsonl(path)
    assert torn == 0
    assert [rec for _, rec in records] == [{"a": 0}, {"a": 1}, {"a": 2}]
    assert [lineno for lineno, _ in records] == [1, 2, 3]


def test_read_jsonl_torn_tail_skipped(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(json.dumps({"a": 1}) + "\n" + '{"a": 2, "b"')
    records, torn = read_jsonl(path)
    assert torn == 1
    assert [rec for _, rec in records] == [{"a": 1}]


def test_read_jsonl_mid_file_corruption_raises(tmp_path):
    path = tmp_path / "x.jsonl"
    _write_lines(path, [json.dumps({"a": 1}), "{not json", json.dumps({"a": 3})])
    with pytest.raises(ValueError, match="x.jsonl:2"):
        read_jsonl(path)


def test_read_jsonl_ignores_blank_lines(tmp_path):
    path = tmp_path / "x.jsonl"
    path.write_text(json.dumps({"a": 1}) + "\n\n" + json.dumps({"a": 2}) + "\n\n")
    records, torn = read_jsonl(path)
    assert torn == 0
    assert len(records) == 2


def _truncate_last_line(path):
    """Chop the final record mid-way, simulating a crash during write."""
    text = path.read_text().rstrip("\n")
    lines = text.split("\n")
    lines[-1] = lines[-1][: max(2, len(lines[-1]) // 2)]
    path.write_text("\n".join(lines))  # no trailing newline: torn


def test_timeline_loader_tolerates_torn_tail(tmp_path):
    path = tmp_path / "timeline.jsonl"
    recs = [{"type": "header", "schema": TIMELINE_SCHEMA, "window_us": 100.0}]
    for i in range(4):
        recs.append({"type": "window", "window": i, "start_us": i * 100.0,
                     "end_us": (i + 1) * 100.0, "counters": {}, "gauges": {},
                     "histograms": {}})
    _write_lines(path, [json.dumps(r) for r in recs])
    _truncate_last_line(path)
    tl = load_timeline_jsonl(path)
    assert tl.torn_tail == 1
    assert [w["window"] for w in tl.windows] == [0, 1, 2]


def test_blame_loader_tolerates_torn_tail(tmp_path):
    path = tmp_path / "blame.jsonl"
    recs = [{"schema": BLAME_SCHEMA}] + [
        {"type": "serve", "task": i, "resource": "cpu",
         "enqueue_us": 2.0 * i, "start_us": 2.0 * i + 1, "end_us": 2.0 * i + 2,
         "wait_us": 1.0, "service_us": 1.0} for i in (1, 2)]
    _write_lines(path, [json.dumps(r) for r in recs])
    _truncate_last_line(path)
    log = load_blame_jsonl(path)
    assert log.torn_tail == 1
    assert len(log.records) == 1


def test_audit_loader_tolerates_torn_tail(tmp_path):
    path = tmp_path / "audit.jsonl"
    recs = [{"seq": i, "t_us": float(i), "type": "admit", "kind": "list",
             "key": i, "data": {}} for i in range(3)]
    _write_lines(path, [json.dumps(r) for r in recs])
    _truncate_last_line(path)
    trail = load_audit_jsonl(path)
    assert trail.torn_tail == 1
    assert len(trail.records) == 2


def test_span_loader_tolerates_torn_tail(tmp_path):
    path = tmp_path / "spans.jsonl"
    recs = [{"span_id": i, "parent_id": None, "name": "q", "start_us": 0.0,
             "end_us": 1.0, "dur_us": 1.0, "attrs": {}} for i in range(3)]
    _write_lines(path, [json.dumps(r) for r in recs])
    _truncate_last_line(path)
    log = load_spans_jsonl(path)
    assert log.torn_tail == 1
    assert len(log.spans) == 2


# -- the one writer -----------------------------------------------------------

def test_writer_header_records_trailer_and_counts(tmp_path):
    path = tmp_path / "x.jsonl"
    w = JsonlWriter(path, header={"schema": "s/v1"})
    w.write({"a": 1})
    w.write({"a": 2})
    w.write_trailer({"type": "footer"})
    w.close()
    w.close()  # idempotent
    assert (w.written, w.closed) == (2, True)
    assert path.read_text() == ('{"schema": "s/v1"}\n{"a": 1}\n{"a": 2}\n'
                                '{"type": "footer"}\n')
    assert write_jsonl(path, ({"a": i} for i in range(3))) == 3
    assert path.read_text() == '{"a": 0}\n{"a": 1}\n{"a": 2}\n'


def test_writer_finishes_in_place_and_refuses_another_path(tmp_path):
    path = tmp_path / "x.jsonl"
    w = JsonlWriter(path, header={"schema": "s/v1"})
    for i in range(3):
        w.write({"a": i})
    other = tmp_path / "sub" / "y.jsonl"
    other.parent.mkdir()
    with pytest.raises(ValueError, match="streamed in place"):
        w.finish(other)
    assert not w.closed and not list(other.parent.iterdir())
    assert w.finish(path) == 3  # its own file: finalised, nothing else
    assert w.closed and sorted(p.name for p in tmp_path.iterdir()) == [
        "sub", "x.jsonl"]
    assert path.read_text() == ('{"schema": "s/v1"}\n{"a": 0}\n{"a": 1}\n'
                                '{"a": 2}\n')
