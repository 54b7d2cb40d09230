"""Power-loss mapping recovery from OOB metadata."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.constants import FlashConfig
from repro.flash.ftl_page import PageMappingFTL

CFG = FlashConfig(num_blocks=16, pages_per_block=8, overprovision=0.25)


def test_recovery_on_fresh_ftl():
    ftl = PageMappingFTL(CFG)
    assert ftl.verify_recovery()  # empty mapping rebuilds to empty


def test_recovery_after_simple_writes(tiny_flash):
    ftl = PageMappingFTL(tiny_flash)
    for lpn in (0, 5, 9, 5, 0):  # includes overwrites
        ftl.write(lpn)
    rebuilt = ftl.recover_mapping()
    assert rebuilt[0] == ftl.ppn_of(0)
    assert rebuilt[5] == ftl.ppn_of(5)
    assert ftl.verify_recovery()


def test_recovery_survives_gc(tiny_flash):
    """GC relocations rewrite OOB at the new location; old copies in
    erased blocks vanish — recovery must still find the latest."""
    ftl = PageMappingFTL(tiny_flash)
    span = ftl.num_lpns // 4
    for i in range(tiny_flash.total_pages * 2):
        ftl.write(i % span)
    assert ftl.stats.block_erases > 0
    assert ftl.verify_recovery()


def test_recovery_respects_trim(tiny_flash):
    ftl = PageMappingFTL(tiny_flash)
    ftl.write(3)
    ftl.write(4)
    ftl.trim(3)
    rebuilt = ftl.recover_mapping()
    assert rebuilt[3] == -1  # journaled trim wins over the stale OOB copy
    assert rebuilt[4] == ftl.ppn_of(4)
    assert ftl.verify_recovery()


def test_rewrite_after_trim_recovers_new_copy(tiny_flash):
    ftl = PageMappingFTL(tiny_flash)
    ftl.write(7)
    ftl.trim(7)
    ftl.write(7)  # newer than the trim record
    assert ftl.recover_mapping()[7] == ftl.ppn_of(7)
    assert ftl.verify_recovery()


def test_recovery_with_span_operations(tiny_flash):
    ftl = PageMappingFTL(tiny_flash)
    ftl.write_span(0, 50)
    ftl.write_span(10, 30)  # overwrite middle
    ftl.trim_span(20, 10)
    assert ftl.verify_recovery()


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    ops=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, CFG.logical_pages - 1)),
        min_size=1,
        max_size=250,
    )
)
def test_recovery_property(ops):
    """Whatever the history (writes, trims, GC), OOB recovery rebuilds
    exactly the live mapping."""
    ftl = PageMappingFTL(CFG)
    for op, lpn in ops:
        if op == 0:
            ftl.read(lpn)
        elif op == 1:
            ftl.write(lpn)
        else:
            ftl.trim(lpn)
    assert ftl.verify_recovery()


def test_recovery_finds_latest_among_stale_copies(tiny_flash):
    """Multiple stale copies of one lpn coexist on flash until GC; the
    highest sequence number must win."""
    ftl = PageMappingFTL(tiny_flash)
    for _ in range(5):
        ftl.write(11)
    # Five OOB records exist for lpn 11 (no GC yet in a fresh device).
    stale = np.nonzero(ftl._oob_lpn == 11)[0]
    assert stale.size == 5
    assert ftl.recover_mapping()[11] == ftl.ppn_of(11)
