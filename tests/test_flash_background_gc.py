"""Idle-time (background) garbage collection."""

import numpy as np
import pytest

from repro.core.config import CacheConfig, Policy
from repro.flash.ftl_block import BlockMappingFTL
from repro.flash.ftl_page import PageMappingFTL
from repro.flash.ssd import SimulatedSSD
from repro.workloads.retrieval import run_cached
from repro.workloads.sweep import make_log_for, make_scaled_index

MB = 1024 * 1024


def churn(ftl, rng, ops):
    span = ftl.num_lpns // 2
    for _ in range(ops):
        ftl.write(int(rng.integers(0, span)))


def test_budget_validation(tiny_flash):
    ftl = PageMappingFTL(tiny_flash)
    with pytest.raises(ValueError):
        ftl.background_collect(-1.0)


def test_background_gc_stocks_free_pool(tiny_flash):
    ftl = PageMappingFTL(tiny_flash)
    churn(ftl, np.random.default_rng(0), tiny_flash.total_pages)
    before = ftl.free_block_count
    used = ftl.background_collect(budget_us=10**7)
    assert used > 0
    assert ftl.free_block_count > before
    ftl.nand.check_invariants()


def test_background_gc_respects_budget(tiny_flash):
    ftl = PageMappingFTL(tiny_flash)
    churn(ftl, np.random.default_rng(1), tiny_flash.total_pages)
    used = ftl.background_collect(budget_us=1.0)  # enough for ~one victim
    assert used <= 1.0 + tiny_flash.erase_us + 64 * (
        tiny_flash.read_us + tiny_flash.write_us
    )


def test_background_gc_skips_expensive_victims(tiny_flash):
    """A freshly filled device (all-valid blocks) offers nothing worth
    collecting in the background."""
    ftl = PageMappingFTL(tiny_flash)
    for lpn in range(ftl.num_lpns // 2):
        ftl.write(lpn)
    assert ftl.background_collect(budget_us=10**7) == 0.0


def test_background_gc_reduces_foreground_latency(tiny_flash):
    """With a stocked pool, foreground writes skip inline GC."""
    rng_a, rng_b = np.random.default_rng(2), np.random.default_rng(2)
    inline = PageMappingFTL(tiny_flash)
    background = PageMappingFTL(tiny_flash)
    churn(inline, rng_a, tiny_flash.total_pages)
    churn(background, rng_b, tiny_flash.total_pages)

    t_inline = t_background = 0.0
    rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(30):
        for _ in range(8):
            t_inline += inline.write(int(rng_a.integers(0, inline.num_lpns // 2)))
            t_background += background.write(
                int(rng_b.integers(0, background.num_lpns // 2))
            )
        background.background_collect(budget_us=10**6)
    assert t_background < t_inline


def test_ssd_idle_collect_charges_bg_channel(tiny_flash):
    ssd = SimulatedSSD(tiny_flash)
    rng = np.random.default_rng(4)
    span = ssd.capacity_bytes // 4
    for _ in range(2500):  # heavy overwrite churn leaves invalid pages
        off = int(rng.integers(0, span - 4096)) // 512 * 512
        ssd.write(off // 512, 2048)
    now_before = ssd.clock.now_us
    used = ssd.idle_collect(10**6)
    assert used > 0
    assert ssd.clock.now_us == now_before  # idle time does not advance now
    assert ssd.clock.busy_us("ssd-bg") == pytest.approx(used)
    assert ssd.counters.total("bg_gc_us") == pytest.approx(used)


def test_idle_collect_noop_for_ftls_without_bg(tiny_flash):
    ssd = SimulatedSSD(tiny_flash, ftl=BlockMappingFTL(tiny_flash))
    assert ssd.idle_collect(10**6) == 0.0


def test_run_cached_with_idle_gc_is_not_slower():
    index = make_scaled_index(200_000)
    log = make_log_for(800, distinct_queries=250, seed=44)
    cfg = CacheConfig.paper_split(4 * MB, 16 * MB, policy=Policy.CBLRU)
    plain = run_cached(index, log, cfg)
    assisted = run_cached(index, log, cfg, idle_gc_us=50_000.0)
    assert assisted.mean_response_ms <= plain.mean_response_ms * 1.02
    assert assisted.stats.queries == plain.stats.queries
