"""Greedy GC victim selection: the fewest valid pages, never the active
block, ties to the lowest block."""

import pytest

from repro.flash.constants import FlashConfig
from repro.flash.ftl_page import PageMappingFTL


@pytest.fixture
def ftl_with_utilisation():
    """Blocks 0..3 with 8, 2, 5, 0 valid pages respectively (and 2, 8, 5,
    10 invalid ones), programmed on the NAND array directly: the victim
    decision reads only its per-block counters."""
    ftl = PageMappingFTL(FlashConfig(num_blocks=4, overprovision=0.0))
    for block, valid in enumerate((8, 2, 5, 0)):
        for i in range(10):
            ppn = ftl.nand.program_page(block)
            if i >= valid:
                ftl.nand.invalidate_page(ppn)
    return ftl


def test_greedy_picks_fewest_valid(ftl_with_utilisation):
    assert ftl_with_utilisation._gc_victim(0, "foreground") == 3  # zero valid


def test_greedy_respects_candidate_subset(ftl_with_utilisation):
    # The active block is never a candidate: with block 3 active no block
    # is dead, and the scan takes the fewest valid pages among the rest.
    assert ftl_with_utilisation._gc_victim(3, "foreground") == 1


def test_greedy_without_candidates_returns_none():
    ftl = PageMappingFTL(FlashConfig(num_blocks=4, overprovision=0.0))
    assert ftl._gc_victim(0, "foreground") is None  # nothing written
    ftl.nand.invalidate_page(ftl.nand.program_page(0))
    # The only block with an invalid page is the active one.
    assert ftl._gc_victim(0, "background") is None
    assert ftl._gc_victim(1, "background") == 0
