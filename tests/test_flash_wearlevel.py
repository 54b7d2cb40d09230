"""Static wear leveling."""

import numpy as np
import pytest

from repro.flash.constants import FlashConfig
from repro.flash.ftl_page import PageMappingFTL
from repro.flash import wearlevel
from repro.flash.wear import wear_report
from repro.flash.wearlevel import WearLevelingFTL


@pytest.fixture
def cfg():
    return FlashConfig(num_blocks=64, overprovision=0.15)


def _hot_cold_workload(ftl, rng, rounds=3):
    """Fill everything once, then hammer a small hot region."""
    for lpn in range(ftl.num_lpns):
        ftl.write(lpn)
    hot = ftl.num_lpns // 10
    for _ in range(ftl.config.total_pages * rounds):
        ftl.write(int(rng.integers(0, hot)))


def leveller(monkeypatch, cfg, threshold, interval):
    """A wear-leveling FTL built under the given trigger constants."""
    monkeypatch.setattr(wearlevel, "WEAR_DELTA_THRESHOLD", threshold)
    monkeypatch.setattr(wearlevel, "CHECK_INTERVAL", interval)
    return WearLevelingFTL(cfg)


def test_levelling_reduces_skew(cfg, monkeypatch):
    plain = PageMappingFTL(cfg)
    wl = leveller(monkeypatch, cfg, 5, 32)
    _hot_cold_workload(plain, np.random.default_rng(0))
    _hot_cold_workload(wl, np.random.default_rng(0))
    rp = wear_report(plain.nand.erase_counts)
    rw = wear_report(wl.nand.erase_counts)
    assert rw.skew < rp.skew
    assert rw.max_erases <= rp.max_erases
    assert wl.migrations > 0


def test_levelling_preserves_mapping(cfg, monkeypatch):
    wl = leveller(monkeypatch, cfg, 4, 16)
    _hot_cold_workload(wl, np.random.default_rng(1), rounds=2)
    wl.nand.check_invariants()
    assert wl.mapped_lpn_count() == wl.num_lpns
    for lpn in range(0, wl.num_lpns, 37):
        assert wl.ppn_of(lpn) >= 0
        wl.read(lpn)


def test_no_migration_under_even_wear(cfg, monkeypatch):
    """Uniform random traffic wears evenly: the trigger must stay quiet."""
    wl = leveller(monkeypatch, cfg, 50, 16)
    rng = np.random.default_rng(2)
    for _ in range(cfg.total_pages * 2):
        wl.write(int(rng.integers(0, wl.num_lpns)))
    assert wl.migrations == 0


def test_span_writes_also_trigger_checks(cfg, monkeypatch):
    wl = leveller(monkeypatch, cfg, 3, 64)
    # Cold fill via spans, then hot span overwrites.
    ppb = cfg.pages_per_block
    for start in range(0, wl.num_lpns - ppb, ppb):
        wl.write_span(start, ppb)
    for _ in range(200):
        wl.write_span(0, ppb)
    assert wl.migrations > 0
    wl.nand.check_invariants()


def test_migration_charges_latency(cfg, monkeypatch):
    wl = leveller(monkeypatch, cfg, 2, 8)
    rng = np.random.default_rng(3)
    total = 0.0
    for lpn in range(wl.num_lpns):
        total += wl.write(lpn)
    hot_total = 0.0
    for _ in range(cfg.total_pages):
        hot_total += wl.write(int(rng.integers(0, 16)))
    # Migrations include erase costs, so some writes must be expensive.
    assert hot_total > cfg.total_pages * cfg.write_us
