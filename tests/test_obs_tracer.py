"""Span tracing over the virtual clock."""

import json

import pytest

from repro.obs import NULL_TRACER, NullTracer, Tracer
from repro.sim.clock import VirtualClock


@pytest.fixture()
def clock():
    return VirtualClock()


def test_nested_spans_get_parent_ids(clock):
    tr = Tracer(clock)
    with tr.span("query") as outer:
        clock.advance(10.0)
        with tr.span("probe"):
            clock.advance(5.0)
        outer.set(situation="S1")
    assert [s.name for s in tr.spans] == ["probe", "query"]  # finish order
    probe, query = tr.spans
    assert probe.parent_id == query.span_id
    assert query.parent_id is None
    assert query.start_us == 0.0 and query.end_us == 15.0
    assert probe.dur_us == 5.0
    assert query.attrs == {"situation": "S1"}


def test_record_leaf_span_under_open_parent(clock):
    tr = Tracer(clock)
    with tr.span("query") as q:
        tr.record("dram.read", start_us=1.0, end_us=2.0, nbytes=64)
    leaf = tr.spans[0]
    assert leaf.parent_id == q.span_id
    assert leaf.attrs == {"nbytes": 64}
    assert leaf.dur_us == 1.0
    tr.record("orphan", 0.0, 1.0)
    assert tr.spans[-1].parent_id is None


def test_span_ids_are_unique_and_increasing(clock):
    tr = Tracer(clock)
    for _ in range(5):
        with tr.span("a"):
            pass
    ids = [s.span_id for s in tr.spans]
    assert ids == sorted(ids)
    assert len(set(ids)) == 5


def test_max_spans_cap_counts_drops(clock):
    tr = Tracer(clock, max_spans=2)
    for _ in range(5):
        with tr.span("x"):
            pass
    assert len(tr.spans) == 2
    assert tr.dropped == 3


def test_span_count_counts_spans_stored_after_the_stream_closed(tmp_path, clock):
    # Regression: once close_stream() ran, late spans fall back to the
    # in-memory list but span_count kept returning the stream's total.
    tr = Tracer(clock)
    tr.open_stream(tmp_path / "spans.jsonl")
    for _ in range(3):
        with tr.span("streamed"):
            pass
    assert (tr.span_count, len(tr.spans)) == (3, 0)
    tr.close_stream()
    with tr.span("late"):
        pass
    tr.record("late-leaf", 0.0, 1.0)
    assert [s.name for s in tr.spans] == ["late", "late-leaf"]
    assert tr.span_count == 5
    assert len((tmp_path / "spans.jsonl").read_text().splitlines()) == 3


@pytest.mark.parametrize("elsewhere", [False, True])
def test_spans_after_a_mid_run_export_are_stored_and_counted(
        tmp_path, clock, elsewhere):
    # Regression: export_jsonl() on a streaming tracer closes the writer
    # (write_telemetry_dir always takes this path); the next span must
    # fall back to the in-memory list, not write to the closed file.
    tr = Tracer(clock)
    tr.open_stream(tmp_path / "spans.jsonl")
    with tr.span("streamed"):
        pass
    target = tmp_path / ("copy.jsonl" if elsewhere else "spans.jsonl")
    assert tr.export_jsonl(target) == 1
    with tr.span("late"):
        pass
    tr.record("late-leaf", 0.0, 1.0)
    assert [s.name for s in tr.spans] == ["late", "late-leaf"]
    assert tr.span_count == 3
    assert len(target.read_text().splitlines()) == 1


def test_span_store_and_cap_are_read_live(clock):
    # spans / max_spans are public attributes: reassigning them after
    # construction must take effect on the next span.
    tr = Tracer(clock)
    with tr.span("a"):
        pass
    tr.spans = fresh = []
    tr.max_spans = 1
    with tr.span("b"):
        pass
    with tr.span("c"):
        pass
    assert [s.name for s in fresh] == ["b"]
    assert tr.dropped == 1


def test_span_is_context_manager_and_record_in_one(clock):
    tr = Tracer(clock)
    seen = []
    tr.set_span_sink(seen.append)
    with tr.span("query", qid=1) as open_span:
        clock.advance(2.0)
    tr.record("leaf", 0.5, 1.5, lba=3)
    # The object handed out by span() *is* the stored record, and the
    # sink sees the same objects (no copy, no dict) before storage.
    assert tr.spans[0] is open_span
    assert seen == tr.spans
    assert open_span.to_dict() == {
        "span_id": 1, "parent_id": None, "name": "query",
        "start_us": 0.0, "end_us": 2.0, "dur_us": 2.0, "attrs": {"qid": 1}}
    assert tr.spans[1].to_dict()["attrs"] == {"lba": 3}


def test_export_jsonl_roundtrip(tmp_path, clock):
    tr = Tracer(clock)
    with tr.span("query", qid=1):
        clock.advance(3.0)
    path = tmp_path / "spans.jsonl"
    assert tr.export_jsonl(path) == 1
    lines = path.read_text().splitlines()
    span = json.loads(lines[0])
    assert span == {
        "span_id": 1, "parent_id": None, "name": "query",
        "start_us": 0.0, "end_us": 3.0, "dur_us": 3.0, "attrs": {"qid": 1},
    }


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    with NULL_TRACER.span("anything", a=1) as sp:
        sp.set(b=2)
    NULL_TRACER.record("x", 0.0, 1.0)
    assert NULL_TRACER.spans == ()
    assert NULL_TRACER.dropped == 0
    # The disabled span is shared: no per-call allocation.
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
