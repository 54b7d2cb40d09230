"""Span tracing over the virtual clock."""

import json

import pytest

import repro.obs.tracer as tracer_module
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


def test_max_spans_cap_counts_drops(clock, monkeypatch):
    monkeypatch.setattr(tracer_module, "MAX_SPANS", 2)
    tr = Tracer(clock)
    for _ in range(5):
        with tr.span("x"):
            pass
    assert len(tr.spans) == 2
    assert tr.dropped == 3


def test_span_store_and_cap_are_read_live(clock, monkeypatch):
    # spans is a read-only view of the store, current whenever it is
    # read, and MAX_SPANS is read per span: lowering it after
    # construction takes effect on the next span.
    tr = Tracer(clock)
    view = tr.spans
    with tr.span("a"):
        pass
    with pytest.raises(AttributeError):
        tr.spans = []
    monkeypatch.setattr(tracer_module, "MAX_SPANS", 2)
    with tr.span("b"):
        pass
    with tr.span("c"):
        pass
    assert [s.name for s in view] == ["a", "b"]
    assert tr.dropped == 1


def test_span_is_context_manager_and_record_in_one(clock):
    tr = Tracer(clock)
    with tr.span("query", qid=1) as open_span:
        clock.advance(2.0)
    tr.record("leaf", 0.5, 1.5, lba=3)
    # The kept span equals the object span() handed out.
    assert tr.spans[0].to_dict() == open_span.to_dict()
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
