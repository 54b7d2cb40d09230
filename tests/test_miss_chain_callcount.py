"""Exact call-count pin for the cache-miss chain (noise-free).

Timing on a shared box is good to 5-15 %; the number of Python calls the
simulator makes for a fixed stream of queries repeats exactly.  This test
serves a fixed steady-state window of a ``closed_miss``-shaped workload
(CBLRU, 4 MB memory / 16 MB SSD, working set far larger than both: L1 list
eviction -> Formula 1/2 -> Fig. 13 -> block TRIM / block write / foreground
GC on every query) under ``sys.setprofile`` and counts the ``call`` events
whose code lives in ``repro/``.

Two things are pinned: the count stays under a ceiling (the commit before
the constant-work pass made 161 210 calls in this window, this one 89 144
on Python 3.11; 3.12 inlines comprehensions and reads lower), and the
simulated outcome of the window equals the values recorded from that
parent commit — same decisions, fewer frames.
"""

import os
import sys

from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig, build_corpus_stats
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.workloads.sweep import make_log_for

MB = 1024 * 1024
WARM, COUNTED = 1000, 500

#: 89 144 measured + ~5 % headroom; the parent commit made 161 210.
CALL_CEILING = 93_600

#: Recorded from the parent commit over the same 1 500 queries.
PARENT_STATS = {
    "queries": 1500,
    "result_l1_hits": 284, "result_l2_hits": 294, "result_misses": 922,
    "list_l1_hits": 92, "list_l2_hits": 166,
    "list_partial_hits": 39, "list_misses": 2082,
    "ssd_result_writes": 151, "ssd_list_writes": 1791,
    "ssd_writes_avoided": 418, "discarded_by_tev": 307,
    "evict_stage_replaceable": 20, "evict_stage_size_match": 1608,
    "evict_stage_assemble": 64, "evict_stage_fallback": 0,
    "expired_results": 0, "expired_lists": 0, "static_refreshes": 0,
}
PARENT_SITUATIONS = {"S1": 284, "S2": 6, "S3": 294, "S4": 3, "S5": 14,
                     "S6": 72, "S7": 141, "S8": 669, "S9": 17}
PARENT_ERASES = 1985
PARENT_CLOCK_US = 25616923.22660021


def _count_repro_calls(fn) -> int:
    marker = os.sep + "repro" + os.sep
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and marker in frame.f_code.co_filename:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_miss_chain_call_count_and_outcome_are_pinned():
    stats = build_corpus_stats(CorpusConfig.paper_scale(200_000, seed=42))
    queries = list(make_log_for(WARM + COUNTED, seed=7))
    config = CacheConfig.paper_split(4 * MB, 16 * MB, policy=Policy.CBLRU)
    index = InvertedIndex(stats)
    manager = CacheManager(
        config, build_hierarchy_for(config, index), index,
        QueryProcessor(index, top_k=config.top_k, seed=7))
    for query in queries[:WARM]:
        manager.process_query(query)

    def window():
        for query in queries[WARM:]:
            manager.process_query(query)

    calls = _count_repro_calls(window)

    # Same decisions ...
    got = manager.stats
    assert {name: getattr(got, name) for name in PARENT_STATS} == PARENT_STATS
    assert {s.name: n for s, n in got.situation_counts.items()} == PARENT_SITUATIONS
    assert manager.ssd.erase_count == PARENT_ERASES
    assert manager.clock.now_us == PARENT_CLOCK_US
    assert got.total_response_us == PARENT_CLOCK_US
    manager.check_invariants()
    manager.ssd.ftl.nand.check_invariants()
    # ... in fewer frames.
    assert calls <= CALL_CEILING, (
        f"{calls} Python calls inside repro/ for {COUNTED} steady-state "
        f"queries ({calls / COUNTED:.1f}/query); ceiling {CALL_CEILING}"
    )
