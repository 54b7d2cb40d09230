"""Block-mapping FTL behaviour."""

import pytest

from repro.flash.ftl_block import BlockMappingFTL


@pytest.fixture
def ftl(tiny_flash):
    return BlockMappingFTL(tiny_flash)


def test_first_write_opens_block(ftl):
    ftl.write(0)
    lbn = 0
    assert ftl.physical_block_of(lbn) >= 0
    assert ftl.mapped_lpn_count() == 1


def test_in_place_fill_is_cheap(ftl):
    ppb = ftl.config.pages_per_block
    for off in range(ppb):
        latency = ftl.write(off)
        assert latency == pytest.approx(ftl.config.write_us)
    assert ftl.stats.block_erases == 0


def test_overwrite_triggers_copy_merge(ftl):
    ppb = ftl.config.pages_per_block
    for off in range(ppb):
        ftl.write(off)
    old_pb = ftl.physical_block_of(0)
    latency = ftl.write(0)  # overwrite
    assert latency > ftl.config.erase_us  # copy + erase + program
    assert ftl.physical_block_of(0) != old_pb
    assert ftl.stats.block_erases == 1
    assert ftl.stats.gc_page_writes == ppb - 1
    assert ftl.mapped_lpn_count() == ppb


def test_read_paths(ftl):
    assert ftl.read(0) == ftl.config.read_us  # unmapped block
    ftl.write(5)
    assert ftl.read(5) == ftl.config.read_us
    assert ftl.read(6) == ftl.config.read_us  # mapped block, free page


def test_trim_frees_whole_block_when_empty(ftl):
    ftl.write(0)
    ftl.write(1)
    free_before = ftl.free_block_count
    ftl.trim(0)
    assert ftl.free_block_count == free_before
    ftl.trim(1)
    assert ftl.free_block_count == free_before + 1
    assert ftl.physical_block_of(0) == -1


def test_trim_unmapped_noop(ftl):
    assert ftl.trim(0) == 0.0


def test_random_writes_are_expensive_vs_page_mapping(tiny_flash):
    from repro.flash.ftl_page import PageMappingFTL

    block_ftl = BlockMappingFTL(tiny_flash)
    page_ftl = PageMappingFTL(tiny_flash)
    lpns = [(i * 37) % (tiny_flash.pages_per_block * 4) for i in range(600)]
    for lpn in lpns:
        block_ftl.write(lpn)
        page_ftl.write(lpn)
    assert block_ftl.stats.block_erases > page_ftl.stats.block_erases
    assert block_ftl.stats.write_amplification > page_ftl.stats.write_amplification


def test_mapped_count_consistent_under_churn(ftl):
    seen = set()
    for i in range(500):
        lpn = (i * 13) % 100
        ftl.write(lpn)
        seen.add(lpn)
    assert ftl.mapped_lpn_count() == len(seen)
    ftl.nand.check_invariants()
