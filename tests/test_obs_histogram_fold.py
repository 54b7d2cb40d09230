"""The folding histogram against the per-sample oracle.

``repro.obs.Histogram`` appends a recorded sample to a pending buffer
and folds the buffer into its buckets, ``count``, ``sum``, ``min`` and
``max`` when something reads them; ``tests/_obs_reference.py`` keeps the
histogram that updated all of them on every sample.  Hypothesis drives
both through the same random program — samples (ties included) recorded
one by one, in batches and through the frameless ``appender``, explicit
folds, and every reader: ``percentile``, ``percentiles``,
``take_bucket_deltas``, ``take_window_deltas``, ``merge`` (both sides
with pending samples), ``snapshot`` and ``count``/``sum``/``min``/
``max``/``mean`` — under a small and the real ``PENDING_CAP``.  Each
reader must return the same value, and after it the two histograms must
agree field for field: buckets in insertion order, bucket deltas,
``sum`` bit for bit, and every exemplar captured with its ``(qid,
span_id, window, t_us)`` context.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.instruments as instruments
import repro.obs.telemetry as telemetry_module
import tests._obs_reference as reference
from repro._hot import HOT
from repro.obs import Telemetry
from repro.obs.instruments import Histogram, take_window_deltas
from repro.obs.timeline import ExemplarStore, _right_edge
from repro.sim.clock import VirtualClock


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


#: Ties are what the exemplar gate has to get right: a few repeated values
#: among arbitrary ones.
_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.3, 2.248, 2.248, 40.0, 98.175]),
    st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
)
_ops = st.one_of(
    st.tuples(st.just("record"), _values),
    st.tuples(st.just("batch"), st.lists(_values, max_size=60)),
    st.tuples(st.just("append"), st.lists(_values, max_size=8)),
    st.tuples(st.just("fold"), st.none()),
    st.tuples(st.just("percentile"),
              st.sampled_from([0.0, 50.0, 99.0, 99.9, 100.0])),
    st.tuples(st.just("percentiles"), st.none()),
    st.tuples(st.just("deltas"), st.none()),
    st.tuples(st.just("window"), st.none()),
    st.tuples(st.just("merge"), st.lists(_values, max_size=20)),
    st.tuples(st.just("snapshot"), st.none()),
    st.tuples(st.just("stats"), st.none()),
)


def _same_state(new: Histogram, ref) -> None:
    """Field for field, on a histogram a reader has just folded."""
    assert not new._samples
    assert list(new._counts.items()) == list(ref._counts.items())
    assert list(new._pending.items()) == list(ref._pending.items())
    assert new.count == ref.count
    assert _bits(new.sum) == _bits(ref.sum)
    assert _bits(new.min) == _bits(ref.min)
    assert _bits(new.max) == _bits(ref.max)


def _read(reader, arg, h):
    """One reader's result, or the exception it raised."""
    try:
        if reader == "percentile":
            return _bits(h.percentile(arg))
        if reader == "percentiles":
            return [_bits(v) for v in h.percentiles()]
        if reader == "deltas":
            return list(h.take_bucket_deltas().items())
        if reader == "snapshot":
            return list(h.snapshot().items())
        return [_bits(float(v)) for v in (h.count, h.sum, h.min, h.max,
                                            h.mean)]
    except ValueError as exc:
        return ("raised", str(exc))


@settings(max_examples=300, deadline=None)
@given(program=st.lists(_ops, max_size=40), cap=st.sampled_from([3, instruments.PENDING_CAP]))
def test_the_fold_matches_the_per_sample_oracle(program, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instruments, "PENDING_CAP", cap)
        # One gated pair (an exemplar store each) and one ungated pair
        # that also takes frameless appends.
        stores = (ExemplarStore(), ExemplarStore())
        gated = (Histogram(), reference.ReferenceHistogram())
        for store, h in zip(stores, gated):
            store.register(h, "lat")
        plain = (Histogram(), reference.ReferenceHistogram())
        append = plain[0].appender()
        qid = 0

        def record(values):
            nonlocal qid
            for v in values:
                qid += 1
                for store, h in zip(stores, gated):
                    store.context = (qid, 1000 + qid, qid // 16, qid * 0.5)
                    h.record(v)
                for h in plain:
                    h.record(v)

        for op, arg in program:
            if op == "record":
                record([arg])
            elif op == "batch":
                record(arg)
            elif op == "append":
                # as Telemetry.record_query does: fold at the cap
                for v in arg:
                    append(v)
                    plain[1].record(v)
                    if len(plain[0]._samples) >= cap:
                        plain[0].fold()
            elif op == "fold":
                for h in (gated[0], plain[0]):
                    h.fold()
            elif op == "window":
                for new, ref in (gated, plain):
                    got = take_window_deltas([new])
                    drained = list(ref.take_bucket_deltas().items())
                    want = ([(0, ref.count, _bits(ref.sum), drained)]
                            if drained else [])
                    assert [(i, c, _bits(s), list(d.items()))
                            for i, c, s, d in got] == want
            elif op == "merge":
                for new, ref in (gated, plain):
                    others = (Histogram(), reference.ReferenceHistogram())
                    for h in others:
                        for v in arg:
                            h.record(v)
                    new.merge(others[0])
                    ref.merge(others[1])
                    _same_state(*others)
            else:
                for new, ref in (gated, plain):
                    assert _read(op, arg, new) == _read(op, arg, ref)
            if op not in ("record", "batch", "append", "fold"):
                for pair in (gated, plain):
                    _same_state(*pair)
            assert list(stores[0].exemplars) == list(stores[1].exemplars)
            assert stores[0].dropped == stores[1].dropped
        for new, ref in (gated, plain):
            new.fold()
            _same_state(new, ref)
        assert gated[0].exemplar_gate == gated[1].exemplar_gate


def test_a_histogram_built_from_buckets_reads_like_a_sub_histogram():
    """``from_buckets`` is the parent's ``sub_histogram`` assignment."""
    h = Histogram.from_buckets({"30": 2, "12": 1}, 3, 17.5, lo=0.5,
                               growth=1.04)
    ref = reference.sub_histogram({"buckets": {"30": 2, "12": 1},
                                   "count": 3, "sum": 17.5})
    _same_state(h, ref)
    assert h.percentiles() == ref.percentiles()
    assert Histogram.from_buckets({}, 0, 0.0).snapshot() == \
        reference.ReferenceHistogram().snapshot()


def test_record_rejects_what_cannot_be_bucketed():
    h = Histogram()
    for bad in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="non-negative"):
            h.record(bad)
    assert (h.count, h.snapshot()["buckets"]) == (0, {})


@settings(max_examples=300, deadline=None)
@given(window=st.integers(0, 10**7),
       window_us=st.one_of(st.sampled_from([0.1, 1.0, 10_000.0, 50_000.0,
                                            100_000.0, 1e15]),
                           st.floats(min_value=1e-3, max_value=1e9)))
def test_the_right_edge_is_where_tick_closes_the_window(window, window_us):
    """``now >= edge`` agrees with ``int(now // window_us) > window`` on
    the edge and the ulps around it."""
    edge = _right_edge(window, window_us)
    t = edge
    for _ in range(4):
        t = math.nextafter(t, -math.inf)
    for _ in range(9):
        assert (t >= edge) == (int(t // window_us) > window), (t, edge)
        t = math.nextafter(t, math.inf)


def test_a_query_record_counts_its_samples_and_stays_bounded(monkeypatch):
    """``HOT.histogram_records`` moves at append time, and a telemetry
    without a timeline keeps at most about ``PENDING_CAP`` samples
    pending across its stage histograms."""
    for module in (instruments, telemetry_module):
        monkeypatch.setattr(module, "PENDING_CAP", 8)
    clock = VirtualClock()
    tel = Telemetry(trace=False, audit=False)
    tel.bind_clock(clock)
    before = HOT.snapshot()
    for i in range(100):
        busy0 = tel.busy_snapshot(clock)
        clock.consume("dram", 1.0 + i % 3)
        clock.consume("ssd-cache", 30.0)
        tel.record_query("S3", 40.0 + i, busy0, clock, qid=i)
        assert sum(len(h._samples) for h in tel._stage_hists) < 8
    recorded = HOT.delta(before)["histogram_records"]
    hists = [inst for name, _, inst in tel.registry.items()
             if inst.kind == "histogram"]
    assert recorded == sum(h.count for h in hists) == 400


def test_a_rejected_query_record_leaves_every_histogram_readable():
    """A response time that cannot be bucketed is refused before any
    stage sample is appended, so no buffer holds it for a later fold."""
    clock = VirtualClock()
    tel = Telemetry(trace=False, audit=False)
    tel.bind_clock(clock)
    busy0 = tel.busy_snapshot(clock)
    clock.consume("ssd-cache", 30.0)
    tel.record_query("S3", 40.0, busy0, clock, qid=0)
    before = tel.registry.snapshot()
    for bad in (math.inf, math.nan, -1.0):
        busy0 = tel.busy_snapshot(clock)
        clock.consume("ssd-cache", 30.0)
        with pytest.raises(ValueError, match="non-negative"):
            tel.record_query("S3", bad, busy0, clock, qid=1)
    hists = [inst for name, _, inst in tel.registry.items()
             if inst.kind == "histogram"]
    assert all(not h._samples for h in hists)
    assert tel.registry.snapshot() == before
