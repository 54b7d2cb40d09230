"""Property suite pinning the vectorized fast paths to scalar references.

Every hot-path kernel that was vectorized (or given a fast path) keeps a
scalar reference implementation in-tree; these Hypothesis tests assert
the two never diverge:

* codec — ``varbyte_encode``/``varbyte_decode`` vs
  ``_scalar_varbyte_encode``/``_scalar_varbyte_decode`` (byte-for-byte
  encode equality plus round-trips, including the >63-bit fallback);
* flash — the NAND bitmap/valid-count arrays (slice-store
  ``invalidate_run`` fast path included) reconcile with page states and
  with ``FtlStats`` after arbitrary span workloads;
* LRU — the intrusive slot arena behaves exactly like an
  ``OrderedDict`` model over its full operation set;
* telemetry — ``Histogram.bucket_index``'s bisect over the exact
  boundary table matches the float-log reference oracle.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.codec import (
    _scalar_varbyte_decode,
    _scalar_varbyte_encode,
    varbyte_decode,
    varbyte_encode,
)
from repro.flash.constants import FlashConfig
from repro.flash.ftl_page import PageMappingFTL
from repro.obs.instruments import Histogram

# ---------------------------------------------------------------------------
# codec: vectorized varbyte vs the scalar reference
# ---------------------------------------------------------------------------

small_values = st.lists(st.integers(0, 2**40), max_size=200)
wide_values = st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=50)


@settings(max_examples=150, deadline=None)
@given(values=small_values)
def test_varbyte_encode_byte_identical_to_scalar(values):
    arr = np.asarray(values, dtype=np.int64)
    assert varbyte_encode(arr) == _scalar_varbyte_encode(arr)


@settings(max_examples=150, deadline=None)
@given(values=small_values)
def test_varbyte_roundtrip_matches_scalar_decode(values):
    arr = np.asarray(values, dtype=np.int64)
    blob = varbyte_encode(arr)
    fast = varbyte_decode(blob)
    ref, ref_off = _scalar_varbyte_decode(blob, 0, None)
    assert fast.tolist() == list(ref)
    assert ref_off == len(blob)
    assert fast.tolist() == values


@settings(max_examples=50, deadline=None)
@given(values=wide_values)
def test_varbyte_wide_values_roundtrip(values):
    """Full int64 range (up to 9-byte runs, the vector-path ceiling)."""
    arr = np.asarray(values, dtype=np.int64)
    blob = varbyte_encode(arr)
    assert blob == _scalar_varbyte_encode(arr)
    assert varbyte_decode(blob).tolist() == values


def test_varbyte_overlong_run_raises_like_scalar():
    """A >63-bit run (corrupt stream) delegates to the scalar reference,
    which owns the corrupt-stream semantics — both paths raise."""
    # 11-byte run: shift exceeds 63 → the explicit corrupt-stream guard.
    corrupt = b"\x80" * 10 + b"\x01"
    with pytest.raises(ValueError):
        _scalar_varbyte_decode(corrupt, 0, None)
    with pytest.raises(ValueError):
        varbyte_decode(corrupt)
    # 10-byte run: shift lands on exactly 63, the assembled value
    # overflows int64 instead — same error from both paths.
    overflow = b"\x80" * 9 + b"\x01"
    with pytest.raises(OverflowError):
        _scalar_varbyte_decode(overflow, 0, None)
    with pytest.raises(OverflowError):
        varbyte_decode(overflow)


@settings(max_examples=100, deadline=None)
@given(values=st.lists(st.integers(0, 2**40), min_size=1, max_size=80),
       count=st.integers(0, 90))
def test_varbyte_count_prefix_matches_scalar(values, count):
    """Bounded decodes agree with the scalar reference on values AND the
    consumed byte offset (the decode_posting_list resume contract)."""
    blob = varbyte_encode(np.asarray(values, dtype=np.int64))
    want = min(count, len(values))
    ref, ref_off = _scalar_varbyte_decode(blob, 0, count)
    fast = varbyte_decode(blob, count=count)
    assert fast.tolist() == list(ref) == values[:want]
    re_ref, _ = _scalar_varbyte_decode(blob, ref_off, None)
    assert list(re_ref) == values[want:]


# ---------------------------------------------------------------------------
# flash: NAND bitmap bookkeeping vs page states and FtlStats
# ---------------------------------------------------------------------------

_SPAN_OPS = st.lists(
    st.tuples(
        st.sampled_from(["write_span", "trim_span", "write", "trim"]),
        st.integers(0, 359),   # lpn
        st.integers(1, 96),    # count (spans may cross block boundaries)
    ),
    min_size=1,
    max_size=60,
)


def _reconcile(ftl: PageMappingFTL) -> None:
    nand = ftl.nand
    # Bitmap counts vs the page-state array (the vectorized bookkeeping's
    # own ground truth).
    nand.check_invariants()
    # Every mapped lpn owns exactly one VALID page and vice versa.
    assert int(nand.valid_counts.sum()) == ftl.mapped_lpn_count()
    # FtlStats reconciliation: NAND-level totals equal the stats ledger.
    stats = ftl.stats
    assert nand.programs == stats.host_page_writes + stats.gc_page_writes
    assert nand.erases == stats.block_erases


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.data_too_large])
@given(ops=_SPAN_OPS)
def test_ftl_valid_counts_reconcile_with_stats(ops):
    """Arbitrary span workloads keep bitmaps, states and stats in sync.

    The tiny geometry forces garbage collection, so the reconciliation
    also covers the GC relocation path and the contiguous-run
    invalidation fast paths (whole-span overwrites and trims).
    """
    cfg = FlashConfig(page_bytes=2048, pages_per_block=8, num_blocks=64,
                      overprovision=0.2, gc_free_block_threshold=2)
    ftl = PageMappingFTL(cfg)
    limit = ftl.num_lpns
    for op, lpn, count in ops:
        lpn = lpn % limit
        count = min(count, limit - lpn)
        if op == "write_span":
            ftl.write_span(lpn, count)
        elif op == "trim_span":
            ftl.trim_span(lpn, count)
        elif op == "write":
            ftl.write(lpn)
        else:
            ftl.trim(lpn)
        _reconcile(ftl)
    # The span ops must be indistinguishable from their scalar loops in
    # mapping content too: recovery from OOB metadata agrees.
    assert ftl.verify_recovery()


def test_invalidate_run_matches_pagewise_invalidation():
    """The slice-store fast path flips exactly the pages the scalar
    per-page loop would."""
    from repro.flash.nand import NandArray

    cfg = FlashConfig(pages_per_block=8, num_blocks=8)
    a = NandArray(cfg)
    b = NandArray(cfg)
    for nand in (a, b):
        nand.program_run(0, 8)
        nand.program_run(1, 8)
        nand.program_run(2, 4)
    # A run crossing a block boundary: fast path on `a`, scalar on `b`.
    a.invalidate_run(4, 8)
    for ppn in range(4, 12):
        b.invalidate_page(ppn)
    assert np.array_equal(a.valid_counts, b.valid_counts)
    assert np.array_equal(a.invalid_counts, b.invalid_counts)
    for ppn in range(20):
        assert a.state(ppn) == b.state(ppn)
    a.check_invariants()
    with pytest.raises(RuntimeError):
        a.invalidate_run(4, 2)  # already INVALID
    with pytest.raises(ValueError):
        a.invalidate_run(0, 0)


# ---------------------------------------------------------------------------
# LRU slot arena vs an OrderedDict model (full operation set)
# ---------------------------------------------------------------------------

_LRU_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "touch", "get", "pop", "pop_lru", "peek", "contains"]),
        st.integers(0, 15),
    ),
    max_size=200,
)


@settings(max_examples=80, deadline=None)
@given(ops=_LRU_OPS, window=st.integers(1, 6))
def test_lru_arena_full_op_sequence_equivalence(ops, window):
    """The intrusive slot arena is observationally equivalent to an
    OrderedDict across its whole public surface, including re-insertion
    after pops (slot reuse) and value overwrites."""
    from collections import OrderedDict

    from repro.core.lru import LruList

    lru = LruList(replace_window=window)
    model: OrderedDict = OrderedDict()
    for op, key in ops:
        if op == "insert":
            lru.insert(key, key * 3)
            model[key] = key * 3
            model.move_to_end(key)
        elif op == "touch":
            if key in model:
                assert lru.touch(key) == model[key]
                model.move_to_end(key)
        elif op == "get":
            assert lru.get(key) == model.get(key)
        elif op == "pop":
            if key in model:
                assert lru.pop(key) == model.pop(key)
        elif op == "pop_lru":
            if model:
                assert lru.pop_lru() == model.popitem(last=False)
        elif op == "peek":
            if model:
                k = next(iter(model))
                assert lru.peek_lru() == (k, model[k])
        else:
            assert (key in lru) == (key in model)
        assert len(lru) == len(model)
    assert lru.keys() == list(model.keys())
    assert list(lru.items_lru_order()) == list(model.items())
    assert lru.replace_first_region() == list(model.items())[:window]


# ---------------------------------------------------------------------------
# telemetry: histogram bucketing vs the float-log oracle
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(
    value=st.one_of(
        st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(0, 10**9).map(float),
    ),
    lo=st.sampled_from([0.5, 1.0, 2.0]),
    growth=st.sampled_from([1.04, 1.5, 2.0]),
)
def test_histogram_bucket_index_matches_reference(value, lo, growth):
    h = Histogram(lo=lo, growth=growth)
    assert h.bucket_index(value) == h._reference_bucket_index(value)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(min_value=0.0, max_value=1e9,
                                 allow_nan=False), min_size=1, max_size=40),
       growth=st.sampled_from([1.02, 1.04, 1.5]))
def test_histograms_of_one_layout_share_one_boundary_table(values, growth):
    """Two histograms of one ``(lo, growth)`` share one table; whichever
    of them extends it, both still bucket as the log formula does."""
    a, b = Histogram(lo=1.0, growth=growth), Histogram(lo=1.0, growth=growth)
    assert a._bounds is b._bounds
    assert Histogram(lo=2.0, growth=growth)._bounds is not a._bounds
    for i, v in enumerate(values):
        (a if i % 2 else b).record(v)
        for h in (a, b):
            for w in values[:i + 1]:
                assert h.bucket_index(w) == h._reference_bucket_index(w)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False), max_size=100))
def test_histogram_record_and_drain_consistency(values):
    """Recording keeps count/sum exact and the window-delta drain returns
    exactly the increments since the previous drain."""
    h = Histogram()
    seen: dict[int, int] = {}
    for i, v in enumerate(values):
        h.record(v)
        b = h._reference_bucket_index(v)
        seen[b] = seen.get(b, 0) + 1
        if i % 7 == 6:
            drained = h.take_bucket_deltas()
            assert drained == seen
            seen = {}
    assert h.take_bucket_deltas() == seen
    assert h.count == len(values)
    assert h.sum == pytest.approx(sum(values))
