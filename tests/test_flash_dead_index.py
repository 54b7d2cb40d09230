"""The dead-block index and the one-frame GC decision.

``NandArray.dead`` holds the blocks with no valid and some invalid page,
kept current at every count change; greedy GC takes the lowest of them
outside the active block instead of scanning the per-block counts.  The
promise is that nothing observable moves: at every foreground and
background GC the decision equals greedy (``_ftl_reference.greedy_victim``)
over the full ``invalid_counts > 0`` scan, audited or not, on the
page-mapping FTL and on DFTL, including when the active block is itself
dead.  ``tests/test_flash_equivalence.py`` holds the whole FTL against
the parent's, after every operation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flash.constants import FlashConfig
from repro.flash.ftl_base import _AUDIT_SCORE_CAP
from repro.flash.ftl_dftl import DFTL
from repro.flash.ftl_page import PageMappingFTL
from repro.flash.nand import NandArray
from repro.obs import AuditLog

from ._ftl_reference import greedy_victim

#: 12 blocks x 8 pages with a GC threshold of two: a few dozen page
#: writes reach foreground GC, and fragments leave live pages to copy.
CFG = FlashConfig(num_blocks=12, pages_per_block=8, overprovision=0.25,
                  gc_free_block_threshold=2)
PPB = CFG.pages_per_block
NUM_LPNS = CFG.logical_pages


def _scanned_choice(ftl, active):
    """Greedy over the full candidate scan, as the FTL decided before
    the index: ``invalid_counts > 0`` minus the active block."""
    mask = ftl.nand.invalid_counts > 0
    mask[active] = False
    candidates = mask.nonzero()[0]
    if candidates.size == 0:
        return None
    return greedy_victim(ftl.nand, candidates)


def _checked(ftl):
    """Wrap ``ftl._gc_victim`` so every decision is compared with the
    scan; returns the (origin, victim, active block was the lowest dead
    block with another one waiting) of each decision."""
    decide = ftl._gc_victim
    seen = []

    def checked(active, origin):
        dead = ftl.nand.dead
        shadowed = len(dead) > 1 and min(dead) == active
        want = _scanned_choice(ftl, active)
        got = decide(active, origin)
        assert got == want, (origin, active, sorted(dead))
        seen.append((origin, got, shadowed))
        return got

    ftl._gc_victim = checked
    return seen


def _build(kind, audited):
    ftl = (PageMappingFTL(CFG) if kind == "page"
           else DFTL(CFG, cmt_entries=8))
    log = None
    if audited:
        log = AuditLog()
        ftl.audit = log
    return ftl, log


ops = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(("write_span", "trim_span")),
                  st.integers(0, NUM_LPNS - 1), st.integers(1, 2 * PPB + 3)),
        st.tuples(st.sampled_from(("write", "trim")),
                  st.integers(0, NUM_LPNS - 1)),
        st.tuples(st.just("background_collect"), st.integers(0, 3000)),
    ),
    min_size=1, max_size=150,
)


def _apply(ftl, op):
    name, *args = op
    fn = getattr(ftl, name, None)
    if fn is None:  # DFTL has no span or background entry points
        if name == "write_span":
            name, args = "write", args[:1]
        elif name == "trim_span":
            name, args = "trim", args[:1]
        else:
            return
        fn = getattr(ftl, name)
    if name.endswith("_span"):
        args[1] = min(args[1], NUM_LPNS - args[0])
    fn(*args)


@pytest.mark.parametrize("kind", ["page", "dftl"])
@pytest.mark.parametrize("audited", [False, True], ids=["bare", "audited"])
@settings(max_examples=40, deadline=None)
@given(ops=ops)
def test_gc_decision_equals_greedy_over_the_full_scan(kind, audited, ops):
    ftl, log = _build(kind, audited)
    seen = _checked(ftl)
    for op in ops:
        _apply(ftl, op)
        ftl.nand.check_invariants()
    if log is not None:
        # One gc.victim record per decision that named a victim (a
        # background pass may still decline it), built in that frame.
        victims = [(r.data["origin"], r.key) for r in log.records
                   if r.type == "gc.victim"]
        assert victims == [(o, v) for o, v, _ in seen if v is not None]


@pytest.mark.parametrize("kind", ["page", "dftl"])
@pytest.mark.parametrize("audited", [False, True], ids=["bare", "audited"])
def test_dead_active_block_is_skipped(kind, audited):
    """Write-then-trim churn: every written block dies, GC recycles the
    lowest, and the recycled block, once active and trimmed, is the
    lowest dead block.  Greedy then takes the next dead one, as the scan
    does."""
    ftl, log = _build(kind, audited)
    seen = _checked(ftl)
    lpn = 0
    for step in range(400):
        n = step % PPB + 1
        if lpn + n > NUM_LPNS:
            lpn = 0
        for i in range(lpn, lpn + n):
            ftl.write(i)
        for i in range(lpn, lpn + n):
            ftl.trim(i)
        lpn += n
    ftl.nand.check_invariants()
    assert any(shadowed for _, _, shadowed in seen)
    if log is not None:
        victims = [r.key for r in log.records if r.type == "gc.victim"]
        assert victims == [v for _, v, _ in seen if v is not None]


#: 40 blocks: more candidates than an audit record lists.
WIDE = FlashConfig(num_blocks=40, pages_per_block=8, overprovision=0.25,
                   gc_free_block_threshold=2)


def _record_as_before(ftl, active, victim):
    """The ``gc.victim`` payload as the builder before pair columns made
    it, from the full scan: the candidate count, the victim's valid
    pages and the ``[[block, valid pages], ...]`` head."""
    mask = ftl.nand.invalid_counts > 0
    mask[active] = False
    candidates = mask.nonzero()[0]
    valid = ftl.nand.valid_counts
    head = candidates[:_AUDIT_SCORE_CAP]
    return {"candidates": int(candidates.size),
            "valid_pages": int(valid[victim]),
            "scores": np.array((head, valid[head])).T.tolist()}


def _check_records(ftl):
    """Wrap ``ftl._gc_victim`` so every audited decision is compared with
    the full scan and the old builder; returns each named decision's
    candidate count."""
    log = ftl.audit = AuditLog()
    decide = ftl._gc_victim
    counts = []

    def checked(active, origin):
        want = _scanned_choice(ftl, active)
        expected = (None if want is None
                    else _record_as_before(ftl, active, want))
        got = decide(active, origin)
        assert got == want
        if got is not None:
            record = log.records[-1]
            assert (record.type, record.key) == ("gc.victim", want)
            data = record.data.to_dict()
            assert {k: data[k] for k in expected} == expected
            assert record.data["scores"] == expected["scores"]
            counts.append(expected["candidates"])
        return got

    ftl._gc_victim = checked
    return counts


def _wide(kind):
    # DFTL at its default mapping cache: sustained churn through an
    # 8-entry one livelocks GC at this size (ROADMAP, DFTL).
    return PageMappingFTL(WIDE) if kind == "page" else DFTL(WIDE)


@pytest.mark.parametrize("kind", ["page", "dftl"])
@settings(max_examples=30, deadline=None)
@given(lpns=st.lists(st.integers(0, WIDE.logical_pages - 1),
                     min_size=WIDE.total_pages,
                     max_size=3 * WIDE.total_pages))
def test_audited_record_equals_the_full_scan_builder(kind, lpns):
    """Every audited decision's victim, candidate count and 16-entry
    head equal what the full scan and the old builder give."""
    ftl = _wide(kind)
    counts = _check_records(ftl)
    for lpn in lpns:
        ftl.write(lpn)
    ftl.nand.check_invariants()
    assert counts, "churn past capacity must reach GC"


@pytest.mark.parametrize("kind", ["page", "dftl"])
def test_audited_record_lists_only_the_head(kind):
    """Seeded churn that leaves more candidates than a record lists."""
    ftl = _wide(kind)
    counts = _check_records(ftl)
    rng = np.random.default_rng(5)
    for lpn in rng.integers(0, WIDE.logical_pages, size=4 * WIDE.total_pages):
        ftl.write(int(lpn))
    assert max(counts) > _AUDIT_SCORE_CAP
    assert max(len(r.data["scores"]) for r in ftl.audit.records) == (
        _AUDIT_SCORE_CAP)


def test_dead_active_block_alone_leaves_nothing_to_collect():
    """The only dead block is the active one and no other block has an
    invalid page: the decision is None, as the empty scan is."""
    ftl = PageMappingFTL(CFG)
    ftl.write_span(0, 3)
    ftl.trim_span(0, 3)
    assert ftl.nand.dead == {ftl._active_block}
    assert ftl._gc_victim(ftl._active_block, "foreground") is None
    assert _scanned_choice(ftl, ftl._active_block) is None


# -- the index itself ---------------------------------------------------------

@pytest.fixture
def nand():
    return NandArray(CFG)


def test_every_count_change_keeps_the_index(nand):
    nand.program_run(0, PPB)
    assert nand.dead == set()
    nand.invalidate_run(0, PPB - 1)
    assert nand.dead == set()
    nand.invalidate_page(PPB - 1)
    assert nand.dead == {0}
    nand.erase_block(0)
    assert nand.dead == set()
    # A run across two blocks kills both; programming revives one.
    nand.program_run(1, PPB)
    nand.program_run(2, PPB)
    nand.invalidate_run(PPB, 2 * PPB)
    assert nand.dead == {1, 2}
    # Out-of-order programming (block-mapped FTLs) revives a block too.
    nand.program_page_at(3, 2)
    nand.invalidate_pages(np.array([3 * PPB + 2], dtype=np.int64))
    assert nand.dead == {1, 2, 3}
    nand.program_page_at(3, 5)
    assert nand.dead == {1, 2}
    # The scattered form of invalidate_pages (bincount path).
    nand.program_run(4, 4)
    nand.program_run(5, 4)
    nand.invalidate_pages(np.array([4 * PPB + 3, 5 * PPB, 4 * PPB,
                                    4 * PPB + 1, 4 * PPB + 2]))
    assert nand.dead == {1, 2, 4}
    nand.program_page(4)
    assert nand.dead == {1, 2}
    assert all(type(b) is int for b in nand.dead)
    nand.check_invariants()


def test_check_invariants_cross_checks_the_index(nand):
    """The index against the page-state arrays, both ways: a dead block
    missing from it and a live block in it are both reported."""
    nand.program_run(0, 4)
    nand.invalidate_run(0, 4)
    nand.check_invariants()
    nand.dead.discard(0)
    with pytest.raises(AssertionError, match="dead blocks"):
        nand.check_invariants()
    nand.dead.add(0)
    nand.program_run(1, 2)
    nand.dead.add(1)
    with pytest.raises(AssertionError, match="dead blocks"):
        nand.check_invariants()
