"""The packed-record stores against the object-per-record oracle.

``repro.obs.Tracer`` keeps finished spans and ``repro.obs.AuditLog``
its records as packed machine values; ``tests/_obs_store_reference.py``
keeps the implementation that held one object per record.  Hypothesis
drives both through the same random program — scoped spans (some
bodies raise), serving-path inline opens, device leaves, a
small ``MAX_SPANS`` cap, audit appends and mirrored events past a small
``AUDIT_CAPACITY`` — and every rendered span and record, its order,
``seq``, ``dropped`` and every written file must agree.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.audit as audit_module
import repro.obs.tracer as tracer_module
import tests._obs_store_reference as reference
from repro._row import row_of
from repro.core.events import AdmitEvent, EvictEvent, FlushEvent, L2VictimEvent
from repro.obs import AuditLog, Tracer
from repro.sim.clock import VirtualClock


class _Boom(Exception):
    pass


def _inline(tracer, name, body, open_attrs, attrs):
    """A serving-path span as ``repro.core`` opens one: locals, one
    ``close`` call."""
    stack = tracer.stack
    parent = stack[-1]
    sid = next(tracer.ids)
    stack.append(sid)
    start = tracer.clock._now_us
    try:
        body()
    except BaseException:
        tracer.close(sid, parent, name, start, open_attrs)
        raise
    tracer.close(sid, parent, name, start, attrs)


def _inline_reference(tracer, name, body, open_attrs, attrs):
    """The same span as the oracle's callers opened it: a ``Span``."""
    span = reference.Span()
    stack = tracer.stack
    span.parent_id = stack[-1]
    span.span_id = next(tracer.ids)
    stack.append(span.span_id)
    span.name = name
    span.start_us = tracer.clock._now_us
    try:
        body()
    except BaseException:
        span.attrs = open_attrs
        tracer.close(span)
        raise
    span.attrs = attrs
    tracer.close(span)


_EVENTS = {
    "admit": lambda kind, key, n, reason: AdmitEvent(
        kind=kind, key=key, level="l2", nbytes=n, reason=reason),
    "evict": lambda kind, key, n, reason: EvictEvent(
        kind=kind, key=key, level="l1", nbytes=n, reason=reason),
    "flush": lambda kind, key, n, reason: FlushEvent(
        kind=kind, lba=n, nbytes=4 * n, entries=3),
    "l2_victim": lambda kind, key, n, reason: L2VictimEvent(
        kind=kind, key=key, stage=reason or "lru"),
}


def _run(ops, tracer, audit, clock, inline):
    for op in ops:
        what = op[0]
        if what == "advance":
            clock.advance(op[1])
        elif what == "leaf":
            _, name, dur, attrs = op
            tracer.leaf(name, clock.now_us - dur, clock.now_us, row_of(attrs))
        elif what == "audit":
            _, type_, kind, key, data = op
            audit.append(type_, kind, key, row_of(data))
        elif what == "event":
            _, hook, kind, key, n, reason = op
            getattr(audit, "on_" + hook)(_EVENTS[hook](kind, key, n, reason))
        else:
            _, name, attrs, children, raises = op

            def body(children=children, raises=raises):
                _run(children, tracer, audit, clock, inline)
                clock.advance(1.5)
                if raises:
                    raise _Boom

            try:
                if what == "span":
                    with tracer.span(name, **attrs) as span:
                        span.set(late=len(children))
                        body()
                else:
                    inline(tracer, name, body, row_of({}), row_of(attrs))
            except _Boom:
                pass


_names = st.sampled_from(["query", "result.lookup", "list.fetch",
                          "dram.read", "ssd-cache.write"])
_attrs = st.dictionaries(st.sampled_from(["qid", "lba", "level"]),
                         st.integers(-3, 400), max_size=3)
_keys = st.one_of(st.none(), st.integers(0, 5),
                  st.tuples(st.integers(0, 3), st.integers(0, 3)))
_base = st.one_of(
    st.tuples(st.just("advance"), st.integers(0, 40).map(lambda n: n / 4)),
    st.tuples(st.just("leaf"), _names, st.integers(0, 8).map(float), _attrs),
    st.tuples(st.just("audit"),
              st.sampled_from(["list.select", "gc.victim", "admit"]),
              st.sampled_from(["list", "result", "gc"]), _keys,
              st.dictionaries(st.sampled_from(["ev", "tev", "admit"]),
                              st.integers(0, 9), max_size=2)),
    st.tuples(st.just("event"), st.sampled_from(sorted(_EVENTS)),
              st.sampled_from(["list", "result", "rb"]), _keys,
              st.integers(0, 9000),
              st.sampled_from([None, "capacity", "revalidate"])),
)
_ops = st.recursive(
    _base,
    lambda children: st.tuples(st.sampled_from(["span", "inline"]), _names,
                               _attrs, st.lists(children, max_size=4),
                               st.booleans()),
    max_leaves=40)


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


@settings(max_examples=200, deadline=None)
@given(program=st.lists(_ops, max_size=20),
       max_spans=st.integers(1, 25), capacity=st.integers(1, 12))
def test_packed_stores_match_the_object_per_record_oracle(
        program, max_spans, capacity):
    with pytest.MonkeyPatch.context() as mp, \
            tempfile.TemporaryDirectory() as tmp:
        for module in (tracer_module, reference):
            mp.setattr(module, "MAX_SPANS", max_spans)
        for module in (audit_module, reference):
            mp.setattr(module, "AUDIT_CAPACITY", capacity)
        runs = []
        for side, (tracer_cls, audit_cls, inline) in enumerate((
                (Tracer, AuditLog, _inline),
                (reference.Tracer, reference.AuditLog, _inline_reference))):
            clock = VirtualClock()
            tracer, audit = tracer_cls(clock), audit_cls(clock)
            _run(program, tracer, audit, clock, inline)
            runs.append((tracer, audit))
            assert tracer.stack in ([0], [None])  # every span closed

        (new, new_audit), (ref, ref_audit) = runs
        assert ([s.to_dict() for s in new.spans]
                == [s.to_dict() for s in ref.spans])
        assert len(new.spans) == len(ref.spans)
        if ref.spans:
            assert new.spans[-1].to_dict() == ref.spans[-1].to_dict()
        assert new.dropped == ref.dropped

        assert list(new_audit.records) == list(ref_audit.records)
        assert ([r.to_dict() for r in new_audit.records]
                == [r.to_dict() for r in ref_audit.records])
        assert (len(new_audit), new_audit.dropped) == (
            len(ref_audit), ref_audit.dropped)
        if ref_audit.records:
            assert new_audit.records[0] == ref_audit.records[0]
            assert new_audit.records[-1] == ref_audit.records[-1]
            first = ref_audit.records[0]
            assert (new_audit.records_for(first.kind, first.key)
                    == ref_audit.records_for(first.kind, first.key))

        for side, (tracer, audit) in enumerate(runs):
            tracer.export_jsonl(os.path.join(tmp, f"spans-{side}.jsonl"))
            audit.export_jsonl(os.path.join(tmp, f"audit-{side}.jsonl"))
        for name in ("spans", "audit"):
            assert (_read(os.path.join(tmp, f"{name}-0.jsonl"))
                    == _read(os.path.join(tmp, f"{name}-1.jsonl")))
