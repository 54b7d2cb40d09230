"""FAST log-buffer hybrid FTL."""

import pytest

from repro.flash.constants import FlashConfig
from repro.flash.ftl_fast import FastFTL


@pytest.fixture
def ftl(tiny_flash):
    return FastFTL(tiny_flash)


def test_needs_spare_blocks():
    with pytest.raises(ValueError):
        FastFTL(FlashConfig(num_blocks=16, overprovision=0.0))


def test_bulk_load_uses_data_blocks(ftl):
    ppb = ftl.config.pages_per_block
    for lpn in range(ppb * 2):
        ftl.write(lpn)
    # Sequential first-writes go straight to data blocks: no merges.
    assert ftl.stats.full_merges == 0
    assert ftl.stats.block_erases == 0
    assert ftl.mapped_lpn_count() == ppb * 2


def test_overwrite_lands_in_log_and_reads_back(ftl):
    ppb = ftl.config.pages_per_block
    for lpn in range(ppb):
        ftl.write(lpn)
    ftl.write(3)  # overwrite -> log
    assert 3 in ftl._log_map
    assert ftl.read(3) == ftl.config.read_us
    assert ftl.mapped_lpn_count() == ppb


def test_sequential_block_overwrite_switch_merges(ftl):
    ppb = ftl.config.pages_per_block
    # Load several logical blocks, then overwrite them repeatedly in
    # perfect block order: every retired log block is switchable.
    for lpn in range(ppb * 3):
        ftl.write(lpn)
    for _ in range(6):
        for lpn in range(ppb * 3):
            ftl.write(lpn)
    assert ftl.stats.extra.get("switch_merges", 0) > 0
    assert ftl.stats.full_merges == 0
    assert ftl.stats.gc_page_writes == 0  # switch merges copy nothing
    assert ftl.mapped_lpn_count() == ppb * 3
    ftl.nand.check_invariants()


def test_random_overwrites_full_merge(ftl):
    ppb = ftl.config.pages_per_block
    span = ppb * 4
    for lpn in range(span):
        ftl.write(lpn)
    for i in range(span * 4):
        ftl.write((i * 29) % span)
    assert ftl.stats.full_merges > 0
    assert ftl.mapped_lpn_count() == span
    ftl.nand.check_invariants()


def test_fast_beats_block_mapping_on_random_writes(tiny_flash):
    from repro.flash.ftl_block import BlockMappingFTL

    fast = FastFTL(tiny_flash)
    block = BlockMappingFTL(tiny_flash)
    span = tiny_flash.pages_per_block * 4
    for i in range(span * 3):
        lpn = (i * 29) % span
        fast.write(lpn)
        block.write(lpn)
    assert fast.stats.block_erases < block.stats.block_erases


def test_trim_from_log_and_data(ftl):
    ppb = ftl.config.pages_per_block
    for lpn in range(ppb):
        ftl.write(lpn)
    ftl.write(0)  # move lpn 0 into log
    ftl.trim(0)
    ftl.trim(1)
    assert ftl.mapped_lpn_count() == ppb - 2
    assert ftl.read(0) == ftl.config.read_us  # unmapped read still bounded


def test_mapping_correct_after_heavy_churn(ftl):
    """Every lpn written must remain readable; state arrays must agree."""
    span = ftl.config.pages_per_block * 3
    for i in range(span * 5):
        ftl.write((i * 13 + i % 7) % span)
    for lpn in range(span):
        ftl.read(lpn)
    ftl.nand.check_invariants()
