"""GC victim choices must be faithfully reflected in the audit trail.

Property tests: whatever churn the host generates, every erase
corresponds to exactly one ``gc.victim`` audit record carrying the
policy name, device tag and candidate evidence.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.constants import FlashConfig
from repro.flash.ftl_page import PageMappingFTL
from repro.flash.ssd import SimulatedSSD
from repro.obs import AuditLog

CFG = FlashConfig(num_blocks=16, pages_per_block=8, overprovision=0.25)


def audited_ftl():
    ftl = PageMappingFTL(CFG)
    log = AuditLog()
    ftl.audit = log
    ftl.audit_device = "dev0"
    return ftl, log


def churn(ftl, lpns):
    for lpn in lpns:
        ftl.write(int(lpn))


churn_strategy = st.lists(
    st.integers(0, CFG.logical_pages - 1),
    min_size=CFG.total_pages,
    max_size=CFG.total_pages * 3,
)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lpns=churn_strategy)
def test_every_erase_leaves_one_victim_record(lpns):
    ftl, log = audited_ftl()
    churn(ftl, lpns)
    victims = [r for r in log.records if r.type == "gc.victim"]
    assert len(victims) == ftl.stats.block_erases
    for r in victims:
        assert r.kind == "gc"
        assert 0 <= r.key < CFG.num_blocks
        assert r.data["device"] == "dev0"
        # Greedy is the one rule; the field keeps the record's format.
        assert r.data["policy"] == "GreedyVictimPolicy"
        assert r.data["origin"] in ("foreground", "background")
        assert 1 <= r.data["candidates"] <= CFG.num_blocks
        assert 0 <= r.data["valid_pages"] <= CFG.pages_per_block
        # The score sample lists (block, valid_pages) pairs at choice time.
        for block, valid in r.data["scores"]:
            assert 0 <= block < CFG.num_blocks
            assert 0 <= valid <= CFG.pages_per_block


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lpns=churn_strategy)
def test_greedy_victim_minimises_valid_pages_over_sample(lpns):
    """Greedy's recorded choice is never beaten by any sampled candidate."""
    ftl, log = audited_ftl()
    churn(ftl, lpns)
    victims = [r for r in log.records if r.type == "gc.victim"]
    for r in victims:
        sampled = {block: valid for block, valid in r.data["scores"]}
        # The chosen block's count is the record's valid_pages...
        if r.key in sampled:
            assert sampled[r.key] == r.data["valid_pages"]
        # ...and no sampled candidate had fewer valid pages.
        assert r.data["valid_pages"] <= min(sampled.values())


def test_ssd_attachment_tags_device_name():
    ssd = SimulatedSSD(CFG, name="ssd-cache")
    log = AuditLog()
    ssd.audit = log
    assert ssd.ftl.audit is log
    assert ssd.ftl.audit_device == "ssd-cache"
    sectors = CFG.sectors_per_page
    rng = np.random.default_rng(1)
    for lpn in rng.integers(0, CFG.logical_pages, size=CFG.total_pages * 2):
        ssd.write(int(lpn) * sectors, CFG.page_bytes)
    victims = [r for r in log.records if r.type == "gc.victim"]
    assert len(victims) == ssd.erase_count > 0
    assert {r.data["device"] for r in victims} == {"ssd-cache"}


def test_unaudited_ftl_records_nothing():
    ftl = PageMappingFTL(CFG)
    assert ftl.audit is None
    rng = np.random.default_rng(2)
    churn(ftl, rng.integers(0, CFG.logical_pages, size=CFG.total_pages * 2))
    assert ftl.stats.block_erases > 0  # GC ran fine without an audit sink
