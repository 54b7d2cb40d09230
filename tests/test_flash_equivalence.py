"""Differential property: the constant-work page-mapping FTL against the
parent commit's FTL (``tests/_ftl_reference.py``), compared with ``==``.

``repro.flash.ftl_page`` was rewritten in place — TRIM journal dict → one
``int64`` array, ``np.arange`` per run → slices of one index ramp,
``np.array_equal`` → a bytes compare, dead victims erased without a page
scan, the GC candidate mask down to one compare — with the promise that
nothing observable moves.  Both FTLs are driven with the same random
sequence of span and scalar operations on a geometry small enough that
foreground GC with copy-back runs, and after *every* operation the returned latency, both mapping directions, the NAND
page states and counters, ``FtlStats``, the mapped count and the
OOB-recovered mapping (what pins the journal change) must be equal.

The span paths test a span's shape on ``memoryview`` objects: one
contiguous physical run (read, rewrite, TRIM), a span TRIM left fully
unmapped (write), anything else through numpy.  The mix therefore also
trims a span and writes it straight back, and the seeded tests below
check that every shape — runs crossing a block boundary included — is
reached, and that a contiguous read of a FREE page fails as before.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.constants import FlashConfig
from repro.flash.ftl_page import PageMappingFTL
from repro.flash.nand import NandArray, PageState

from . import _ftl_reference as reference

#: 12 blocks x 8 pages, 9 logical blocks (72 lpns): three spare blocks and
#: a GC threshold of two, so a few dozen page writes reach foreground GC
#: and fragmented overwrites leave victims with live pages to copy back.
CFG = FlashConfig(num_blocks=12, pages_per_block=8, overprovision=0.25,
                  gc_free_block_threshold=2)
PPB = CFG.pages_per_block
NUM_LPNS = CFG.logical_pages
NUM_LBLOCKS = NUM_LPNS // PPB

SPAN_OPS = ("write_span", "trim_span", "read_span")
SCALAR_OPS = ("write", "trim", "read")


def _pair():
    return PageMappingFTL(CFG), reference.PageMappingFTL(CFG)


def _call(ftl, op):
    """Run one op; returns ("ok", latency) or ("raised", type, message)."""
    try:
        return ("ok", getattr(ftl, op[0])(*op[1:]))
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return ("raised", type(exc), str(exc))


def _assert_same_state(new, ref, context) -> None:
    for name in ("_l2p", "_p2l", "_oob_lpn", "_oob_seq"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), (name, context)
    for name in ("_state", "_valid_count", "_invalid_count", "_write_ptr",
                 "erase_counts"):
        assert np.array_equal(getattr(new.nand, name),
                              getattr(ref.nand, name)), (name, context)
    for name in ("programs", "reads", "erases"):
        assert getattr(new.nand, name) == getattr(ref.nand, name), (name, context)
    assert new.stats == ref.stats, context
    assert new.mapped_lpn_count() == ref.mapped_lpn_count(), context
    assert new.erase_count_total == ref.erase_count_total, context
    assert new._write_seq == ref._write_seq, context
    assert new._active_block == ref._active_block, context
    assert new._free_blocks == ref._free_blocks, context
    assert np.array_equal(new.recover_mapping(), ref.recover_mapping()), context


def _drive(ops) -> tuple:
    """Apply ``ops`` to both FTLs in lockstep, comparing after each one."""
    new, ref = _pair()
    for step, op in enumerate(ops):
        got, want = _call(new, op), _call(ref, op)
        assert got == want, (step, op, got, want)
        _assert_same_state(new, ref, (step, op))
    new.nand.check_invariants()
    assert new.verify_recovery() and ref.verify_recovery()
    return new, ref


# -- operation shapes --------------------------------------------------------

#: whole-block runs on block boundaries: the cost-based placement shape
aligned = st.builds(
    lambda op, blk, n: (op, blk * PPB, min(n, NUM_LBLOCKS - blk) * PPB),
    st.sampled_from(SPAN_OPS), st.integers(0, NUM_LBLOCKS - 1), st.integers(1, 3),
)
#: sub-block fragments and spans straddling block boundaries
fragments = st.builds(
    lambda op, lpn, n: (op, lpn, min(n, NUM_LPNS - lpn)),
    st.sampled_from(SPAN_OPS), st.integers(0, NUM_LPNS - 1),
    st.integers(1, 2 * PPB + 3),
)
scalars = st.tuples(st.sampled_from(SCALAR_OPS), st.integers(0, NUM_LPNS - 1))
#: spans that leave the logical space, empty and negative counts, bad lpns
out_of_range = st.one_of(
    st.tuples(st.sampled_from(SPAN_OPS), st.integers(-3, NUM_LPNS + 3),
              st.integers(-1, PPB + 2)),
    st.tuples(st.sampled_from(SCALAR_OPS),
              st.sampled_from((-1, NUM_LPNS, NUM_LPNS + 7))),
)
#: a TRIM and the write that refills the span it unmapped
rewrites = st.builds(
    lambda lpn, n: [("trim_span", lpn, min(n, NUM_LPNS - lpn)),
                    ("write_span", lpn, min(n, NUM_LPNS - lpn))],
    st.integers(0, NUM_LPNS - 1), st.integers(1, 2 * PPB + 3),
)
op_sequences = st.lists(
    st.one_of(*(shape.map(lambda op: [op]) for shape in
                (aligned, fragments, fragments, scalars, out_of_range)),
              rewrites),
    min_size=1, max_size=80,
).map(lambda groups: [op for group in groups for op in group])


@settings(max_examples=60, deadline=None)
@given(ops=op_sequences)
def test_ftl_matches_parent_after_every_op(ops):
    _drive(ops)


def test_geometry_reaches_gc_copy_back_and_dead_victims():
    """The property's geometry is not vacuous: a seeded mixed sequence
    runs foreground GC both with copy-back (fragmented overwrites) and on
    dead victims (whole-block overwrites and trims), and the two FTLs
    stay identical through all of it."""
    rng = random.Random(11)
    ops = []
    for _ in range(700):
        shape = rng.random()
        if shape < 0.35:
            blk = rng.randrange(NUM_LBLOCKS)
            ops.append((rng.choice(("write_span", "write_span", "trim_span")),
                        blk * PPB, PPB))
        elif shape < 0.85:
            lpn = rng.randrange(NUM_LPNS)
            ops.append((rng.choice(SPAN_OPS), lpn,
                        min(rng.randint(1, PPB + 3), NUM_LPNS - lpn)))
        else:
            ops.append((rng.choice(SCALAR_OPS), rng.randrange(NUM_LPNS)))
    new, _ = _drive(ops)
    assert new.stats.block_erases > 50
    assert new.stats.gc_page_writes > 0            # copy-back ran
    assert new.stats.block_erases * PPB > new.stats.gc_page_writes
    assert new.stats.trimmed_pages > 0


@pytest.mark.parametrize("op, outcome", [
    (("write_span", NUM_LPNS - 2, 5), "raised"), (("read_span", -1, 3), "raised"),
    (("trim_span", NUM_LPNS, 1), "raised"), (("write_span", 0, 0), "raised"),
    (("read_span", 4, -2), "raised"), (("write", NUM_LPNS), "raised"),
    (("trim", -1), "raised"), (("read", NUM_LPNS + 1), "raised"),
    # an empty or negative TRIM is a free no-op, checked before the range
    (("trim_span", 3, 0), "ok"), (("trim_span", NUM_LPNS + 9, -1), "ok"),
])
def test_edge_spans_behave_like_parent(op, outcome):
    new, ref = _pair()
    got, want = _call(new, op), _call(ref, op)
    assert got[0] == outcome
    assert got == want  # same latency, or same exception type and message
    _assert_same_state(new, ref, op)


def _lay_out_across_a_block_boundary(ftl) -> None:
    """lpns 0..11 -> ppns 0..11: the second write fills block 0 and runs
    on into block 1, so lpns 4..11 are one physical run over two blocks."""
    ftl.write_span(0, 4)
    ftl.write_span(4, 8)
    assert [ftl.ppn_of(lpn) for lpn in range(12)] == list(range(12))


@pytest.mark.parametrize("lpn, count", [
    (2, 8),    # contiguous run, across the boundary
    (5, 1),    # one page
    (4, 8),    # contiguous run starting at the FREE page's block
    (3, 12),   # runs into unmapped lpns: the scattered path
])
def test_contiguous_read_of_a_free_page_fails_like_parent(lpn, count):
    new, ref = _pair()
    for ftl in (new, ref):
        _lay_out_across_a_block_boundary(ftl)
        # A mapped page that reads FREE is an FTL bug the read must catch.
        ftl.nand._state[5] = PageState.FREE
    got = _call(new, ("read_span", lpn, count))
    assert got == _call(ref, ("read_span", lpn, count))
    assert got == ("raised", RuntimeError,
                   "read of unwritten (FREE) page in span")
    _assert_same_state(new, ref, (lpn, count))


def test_runs_across_a_block_boundary_match_parent():
    ops = [("read_span", 2, 8), ("read_span", 4, 8), ("write_span", 3, 6),
           ("trim_span", 6, 4), ("write_span", 6, 4), ("read_span", 0, 12),
           ("trim_span", 0, 12), ("write_span", 0, 12), ("read_span", 1, 10)]
    new, ref = _pair()
    for ftl in (new, ref):
        _lay_out_across_a_block_boundary(ftl)
    for step, op in enumerate(ops):
        got, want = _call(new, op), _call(ref, op)
        assert got == want, (step, op, got, want)
        _assert_same_state(new, ref, (step, op))
    new.nand.check_invariants()


def test_seeded_mix_reaches_every_span_shape(monkeypatch):
    """The shapes the span paths tell apart all occur in a seeded mix —
    contiguous reads and invalidations within one block and across two,
    writes into a fully unmapped span — and both FTLs stay identical."""
    seen = dict.fromkeys(("read_run", "read_run_across",
                          "invalidate_run_across", "unmapped_write"), 0)
    real_read_run = NandArray.read_run
    real_invalidate_run = NandArray.invalidate_run
    real_write_span = PageMappingFTL.write_span

    def read_run(nand, start, count):
        seen["read_run"] += 1
        seen["read_run_across"] += start // PPB != (start + count - 1) // PPB
        return real_read_run(nand, start, count)

    def invalidate_run(nand, start, count):
        seen["invalidate_run_across"] += (
            count > 0 and start // PPB != (start + count - 1) // PPB)
        return real_invalidate_run(nand, start, count)

    def write_span(ftl, lpn, count):
        seen["unmapped_write"] += bool(
            count > 0 and 0 <= lpn and lpn + count <= NUM_LPNS
            and (ftl._l2p[lpn:lpn + count] == -1).all())
        return real_write_span(ftl, lpn, count)

    monkeypatch.setattr(NandArray, "read_run", read_run)
    monkeypatch.setattr(NandArray, "invalidate_run", invalidate_run)
    monkeypatch.setattr(PageMappingFTL, "write_span", write_span)
    rng = random.Random(5)
    ops = []
    for _ in range(400):
        lpn = rng.randrange(NUM_LPNS)
        n = min(rng.randint(1, 2 * PPB + 3), NUM_LPNS - lpn)
        shape = rng.random()
        if shape < 0.3:
            ops += [("trim_span", lpn, n), ("write_span", lpn, n)]
        elif shape < 0.6:
            ops += [("write_span", lpn, n), ("read_span", lpn, n)]
        elif shape < 0.9:
            ops.append((rng.choice(SPAN_OPS), lpn, n))
        else:
            ops.append((rng.choice(SCALAR_OPS), lpn))
    new, _ = _drive(ops)
    assert all(seen.values()), seen
    assert new.stats.gc_page_writes > 0
