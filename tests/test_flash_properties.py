"""Property-based tests over the flash stack.

Whatever operation sequence a host issues, every FTL must preserve:
mapping semantics (a written lpn stays mapped until trimmed), NAND state
consistency, and bounded physical usage.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.flash.constants import FlashConfig
from repro.flash.ftl_block import BlockMappingFTL
from repro.flash.ftl_dftl import DFTL
from repro.flash.ftl_fast import FastFTL
from repro.flash.ftl_page import PageMappingFTL

CFG = FlashConfig(num_blocks=16, pages_per_block=8, overprovision=0.25)

# (op, lpn) where op: 0=read, 1=write, 2=trim
ops_strategy = st.lists(
    st.tuples(st.integers(0, 2), st.integers(0, CFG.logical_pages - 1)),
    min_size=1,
    max_size=200,
)

FTLS = [
    lambda: PageMappingFTL(CFG),
    lambda: BlockMappingFTL(CFG),
    lambda: FastFTL(CFG),
    lambda: DFTL(CFG, cmt_entries=6),
]


def _run(ftl, ops):
    live = set()
    for op, lpn in ops:
        if op == 0:
            latency = ftl.read(lpn)
            assert latency >= 0
        elif op == 1:
            latency = ftl.write(lpn)
            assert latency >= CFG.write_us
            live.add(lpn)
        else:
            ftl.trim(lpn)
            live.discard(lpn)
    return live


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_page_mapping_invariants(ops):
    ftl = PageMappingFTL(CFG)
    live = _run(ftl, ops)
    assert ftl.mapped_lpn_count() == len(live)
    ftl.nand.check_invariants()
    for lpn in live:
        assert ftl.ppn_of(lpn) >= 0


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_block_mapping_invariants(ops):
    ftl = BlockMappingFTL(CFG)
    live = _run(ftl, ops)
    assert ftl.mapped_lpn_count() == len(live)
    ftl.nand.check_invariants()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_fast_invariants(ops):
    ftl = FastFTL(CFG)
    live = _run(ftl, ops)
    assert ftl.mapped_lpn_count() == len(live)
    ftl.nand.check_invariants()


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_dftl_invariants(ops):
    ftl = DFTL(CFG, cmt_entries=6)
    live = _run(ftl, ops)
    assert ftl.mapped_lpn_count() == len(live)
    assert ftl.cmt_size <= ftl.cmt_entries
    ftl.nand.check_invariants()


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=ops_strategy)
def test_valid_pages_never_exceed_logical_capacity(ops):
    """Physical valid pages = mapped lpns (+ DFTL translation pages)."""
    ftl = PageMappingFTL(CFG)
    live = _run(ftl, ops)
    total_valid = int(ftl.nand.valid_counts.sum())
    assert total_valid == len(live)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    spans=st.lists(
        st.tuples(
            st.integers(0, CFG.logical_pages - 2),
            st.integers(1, 16),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_span_and_scalar_paths_agree(spans):
    """write_span/trim_span must leave the same mapping as scalar loops."""
    span_ftl = PageMappingFTL(CFG)
    loop_ftl = PageMappingFTL(CFG)
    for start, count in spans:
        count = min(count, CFG.logical_pages - start)
        span_ftl.write_span(start, count)
        for lpn in range(start, start + count):
            loop_ftl.write(lpn)
    assert span_ftl.mapped_lpn_count() == loop_ftl.mapped_lpn_count()
    for lpn in range(0, CFG.logical_pages, 3):
        assert (span_ftl.ppn_of(lpn) >= 0) == (loop_ftl.ppn_of(lpn) >= 0)
    span_ftl.nand.check_invariants()
