"""NAND array state machine."""

import numpy as np
import pytest

from repro.flash.constants import FlashConfig
from repro.flash.nand import NandArray, PageState


@pytest.fixture
def nand():
    return NandArray(FlashConfig(num_blocks=8, overprovision=0.0))


def test_all_pages_start_free(nand):
    assert nand.state(0) is PageState.FREE
    assert nand.state(nand.config.total_pages - 1) is PageState.FREE
    assert nand.is_block_free(0)


def test_program_is_sequential_within_block(nand):
    p0 = nand.program_page(0)
    p1 = nand.program_page(0)
    assert (p0, p1) == (0, 1)
    assert nand.state(0) is PageState.VALID
    assert nand.valid_count(0) == 2
    assert nand.free_pages_in(0) == nand.config.pages_per_block - 2


def test_program_full_block_raises(nand):
    for _ in range(nand.config.pages_per_block):
        nand.program_page(3)
    with pytest.raises(RuntimeError):
        nand.program_page(3)


def test_program_page_at_fixed_offset(nand):
    ppn = nand.program_page_at(2, 5)
    assert ppn == 2 * nand.config.pages_per_block + 5
    assert nand.state(ppn) is PageState.VALID
    with pytest.raises(RuntimeError):
        nand.program_page_at(2, 5)  # already programmed


def test_program_page_at_bad_offset(nand):
    with pytest.raises(IndexError):
        nand.program_page_at(0, nand.config.pages_per_block)


def test_read_free_page_rejected(nand):
    with pytest.raises(RuntimeError):
        nand.read_page(0)


def test_read_counts(nand):
    ppn = nand.program_page(0)
    nand.read_page(ppn)
    nand.read_page(ppn)
    assert nand.reads == 2


def test_invalidate_transitions(nand):
    ppn = nand.program_page(0)
    nand.invalidate_page(ppn)
    assert nand.state(ppn) is PageState.INVALID
    assert nand.valid_count(0) == 0
    assert nand.invalid_count(0) == 1


def test_invalidate_twice_rejected(nand):
    ppn = nand.program_page(0)
    nand.invalidate_page(ppn)
    with pytest.raises(RuntimeError):
        nand.invalidate_page(ppn)


def test_erase_requires_no_valid_pages(nand):
    nand.program_page(1)
    with pytest.raises(RuntimeError):
        nand.erase_block(1)


def test_erase_resets_block_and_counts_wear(nand):
    ppn = nand.program_page(1)
    nand.invalidate_page(ppn)
    nand.erase_block(1)
    assert nand.state(ppn) is PageState.FREE
    assert nand.is_block_free(1)
    assert nand.erase_counts[1] == 1
    assert nand.erases == 1


def test_valid_ppns_in(nand):
    kept = nand.program_page(0)
    dropped = nand.program_page(0)
    nand.invalidate_page(dropped)
    assert nand.valid_ppns_in(0) == [kept]


def test_vectorised_ops_match_counters(nand):
    ppns = nand.program_run(0, 10)
    assert len(ppns) == 10
    assert nand.valid_count(0) == 10
    nand.read_pages(ppns)
    assert nand.reads == 10
    nand.invalidate_pages(ppns[:4])
    assert nand.invalid_count(0) == 4
    assert nand.valid_count(0) == 6
    nand.check_invariants()


def test_program_run_overflow_rejected(nand):
    with pytest.raises(RuntimeError):
        nand.program_run(0, nand.config.pages_per_block + 1)


def test_invalidate_pages_rejects_non_valid(nand):
    ppns = nand.program_run(0, 2)
    nand.invalidate_pages(ppns)
    with pytest.raises(RuntimeError):
        nand.invalidate_pages(ppns)


def test_read_pages_rejects_free(nand):
    with pytest.raises(RuntimeError):
        nand.read_pages(np.array([0, 1]))


def test_out_of_range_ppn(nand):
    with pytest.raises(IndexError):
        nand.state(nand.config.total_pages)
    with pytest.raises(IndexError):
        nand.erase_block(nand.config.num_blocks)


def test_check_invariants_passes_after_mixed_history(nand):
    for _ in range(30):
        nand.program_page(0)
    for ppn in nand.valid_ppns_in(0)[:10]:
        nand.invalidate_page(ppn)
    nand.check_invariants()


def test_check_invariants_states_invalid_implies_written(nand):
    """The GC candidate scan tests ``invalid_count > 0`` alone, leaning on
    "a block with an invalid page has been written"; a counter that says
    otherwise is reported in those words."""
    nand.program_run(0, 4)
    nand.check_invariants()
    nand._invalid_count[3] = 2  # block 3 was never programmed
    with pytest.raises(AssertionError, match="write_ptr == 0"):
        nand.check_invariants()


def test_check_invariants_states_erase_total_matches_per_block_counts(nand):
    """``FTL.erase_count_total`` reads the running ``erases`` counter
    instead of summing ``erase_counts``; drift between the two is caught."""
    nand.program_run(1, 3)
    nand.invalidate_run(nand.config.pages_per_block, 3)
    nand.erase_block(1)
    nand.check_invariants()
    nand.erase_counts[1] += 1
    with pytest.raises(AssertionError, match="erases out of sync"):
        nand.check_invariants()
