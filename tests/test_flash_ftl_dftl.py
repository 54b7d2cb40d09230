"""DFTL: demand-paged mapping table."""

import numpy as np
import pytest

from repro.flash.constants import FlashConfig
from repro.flash.ftl_dftl import DFTL
from repro.flash.ftl_page import PageMappingFTL
from repro.flash.nand import PageState


@pytest.fixture
def ftl(tiny_flash):
    return DFTL(tiny_flash, cmt_entries=8)


def test_cmt_capacity_validated(tiny_flash):
    with pytest.raises(ValueError):
        DFTL(tiny_flash, cmt_entries=0)


def test_write_read_roundtrip(ftl):
    ftl.write(0)
    assert ftl.read(0) >= ftl.config.read_us
    assert ftl.mapped_lpn_count() == 1


def test_cmt_hit_costs_no_translation_io(ftl):
    ftl.write(0)
    before = ftl.stats.translation_page_reads
    latency = ftl.read(0)  # entry is cached now
    assert latency == ftl.config.read_us
    assert ftl.stats.translation_page_reads == before


def test_cmt_eviction_flushes_dirty_entries(ftl):
    spread = ftl.entries_per_tpage  # force distinct translation pages
    for i in range(ftl.cmt_entries + 4):
        ftl.write((i * spread) % ftl.num_lpns)
    assert ftl.cmt_size <= ftl.cmt_entries
    assert ftl.stats.translation_page_writes > 0


def test_cmt_miss_after_eviction_reads_translation_page(ftl):
    spread = ftl.entries_per_tpage
    lpns = [(i * spread) % ftl.num_lpns for i in range(ftl.cmt_entries + 2)]
    for lpn in lpns:
        ftl.write(lpn)
    before = ftl.stats.translation_page_reads
    ftl.read(lpns[0])  # long evicted
    assert ftl.stats.translation_page_reads > before


def test_same_tpage_entries_share_flush(ftl):
    """Entries in one translation page are batch-cleaned on flush."""
    for i in range(4):
        ftl.write(i)  # all in translation page 0
    # Fill the CMT with entries from other translation pages to force
    # eviction of the dirty page-0 entries.
    spread = ftl.entries_per_tpage
    for i in range(1, ftl.cmt_entries + 1):
        ftl.write((i * spread) % ftl.num_lpns)
    # At most a handful of flushes of tvpn 0 should have occurred, not 4
    # separate ones (batch-update effect): allow <= 2.
    assert ftl.stats.translation_page_writes <= ftl.cmt_entries + 2


def test_trim(ftl):
    ftl.write(5)
    ftl.trim(5)
    assert ftl.mapped_lpn_count() == 0
    assert ftl.stats.trimmed_pages == 1


def test_gc_with_translation_pages_survives_churn(tiny_flash):
    ftl = DFTL(tiny_flash, cmt_entries=16)
    span = ftl.num_lpns // 3
    for i in range(tiny_flash.total_pages * 2):
        ftl.write((i * 7) % span)
    assert ftl.stats.block_erases > 0
    assert ftl.mapped_lpn_count() == span
    ftl.nand.check_invariants()
    # Data still resolvable after GC moved both data and translation pages.
    for lpn in range(0, span, 11):
        ftl.read(lpn)


def test_dftl_matches_page_mapping_semantics(tiny_flash):
    """Same workload => same mapped set as the ideal page-mapping FTL."""
    dftl = DFTL(tiny_flash, cmt_entries=8)
    page = PageMappingFTL(tiny_flash)
    ops = [(i * 13) % 50 for i in range(300)]
    for lpn in ops:
        dftl.write(lpn)
        page.write(lpn)
    assert dftl.mapped_lpn_count() == page.mapped_lpn_count()


def test_dftl_costs_more_than_ideal_page_mapping(tiny_flash):
    """The paper treats page-mapping as the ideal; DFTL adds mapping I/O."""
    dftl = DFTL(tiny_flash, cmt_entries=4)
    page = PageMappingFTL(tiny_flash)
    spread = dftl.entries_per_tpage
    total_d = total_p = 0.0
    for i in range(60):
        lpn = (i * spread) % dftl.num_lpns
        total_d += dftl.write(lpn)
        total_p += page.write(lpn)
    assert total_d > total_p


def _assert_mapping_consistent(ftl):
    """Both maps and the GTD name exactly the VALID pages, each once."""
    ftl.nand.check_invariants()
    l2p, p2l = ftl._l2p, ftl._p2l
    mapped = np.nonzero(l2p != -1)[0]
    assert (p2l[l2p[mapped]] == mapped).all()
    for tvpn, ppn in ftl._gtd.items():
        assert p2l[ppn] == -(tvpn + 2)
    tagged = np.nonzero(p2l != -1)[0]
    assert tagged.size == mapped.size + len(ftl._gtd)
    for ppn in tagged.tolist():
        assert ftl.nand.state(ppn) == PageState.VALID


def test_translation_flush_survives_gc_that_flushes_the_same_page():
    """A CMT eviction flushes translation page t and needs room; the
    foreground GC that makes it can relocate an uncached data page of t
    and flush t itself.  Making room first keeps the GTD entry the flush
    reads current: the old order invalidated the stale page a second
    time ("invalidate of non-VALID page") on 26 of these 200 seeds."""
    cfg = FlashConfig(num_blocks=16, pages_per_block=8, overprovision=0.25,
                      gc_free_block_threshold=2)
    for seed in range(200):
        ftl = DFTL(cfg, cmt_entries=8)
        rng = np.random.default_rng(seed)
        for lpn in rng.integers(0, cfg.logical_pages, size=3 * cfg.total_pages):
            ftl.write(int(lpn))
        assert ftl.stats.block_erases > 0, seed
        _assert_mapping_consistent(ftl)


class _WatchedDFTL(DFTL):
    """Counts foreground flushes, and those that programmed ``tvpn``
    again after the GC making their room had already flushed it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.foreground = self.redundant = 0
        self.gc_flushes: list[int] = []

    def _flush_translation_page(self, tvpn: int) -> float:
        if self._in_gc:
            self.gc_flushes.append(tvpn)
            return super()._flush_translation_page(tvpn)
        self.foreground += 1
        self.gc_flushes = []
        before = self.stats.translation_page_writes
        latency = super()._flush_translation_page(tvpn)
        own = self.stats.translation_page_writes - before - len(self.gc_flushes)
        if tvpn in self.gc_flushes and own > 0:
            self.redundant += 1
        return latency


def test_a_flush_skips_the_page_its_own_gc_already_flushed():
    """The churn above: 26 of its 2 386 foreground flushes used to
    rewrite a translation page that the GC run to make their room had
    just flushed from the same shadow map.  None does now, and both maps
    still name exactly the VALID pages."""
    cfg = FlashConfig(num_blocks=16, pages_per_block=8, overprovision=0.25,
                      gc_free_block_threshold=2)
    foreground = redundant = 0
    for seed in range(200):
        ftl = _WatchedDFTL(cfg, cmt_entries=8)
        rng = np.random.default_rng(seed)
        for lpn in rng.integers(0, cfg.logical_pages, size=3 * cfg.total_pages):
            ftl.write(int(lpn))
        _assert_mapping_consistent(ftl)
        foreground += ftl.foreground
        redundant += ftl.redundant
    assert foreground > 2000
    assert redundant == 0
