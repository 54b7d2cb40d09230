"""Three-level caching (intersections) — the paper's [19] extension."""

import pytest

from repro.core import intersections
from repro.core.config import CacheConfig, Policy
from repro.core.intersections import (
    IntersectionCache,
    IntersectionEntry,
    ThreeLevelCacheManager,
    estimate_intersection_postings,
)
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.query import Query

KB = 1024


@pytest.fixture(scope="module")
def index():
    return InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=80, seed=13))


@pytest.fixture
def every_pair(monkeypatch):
    """Admit a pair's intersection the first time the pair is seen."""
    monkeypatch.setattr(intersections, "MIN_PAIR_FREQ", 1)


def make_manager(index, intersection_bytes=2 * 1024 * KB, **kwargs):
    cfg = CacheConfig(
        mem_result_bytes=100 * KB,
        mem_list_bytes=512 * KB,
        ssd_result_bytes=512 * KB,
        ssd_list_bytes=4 * 1024 * KB,
        policy=Policy.CBLRU,
    )
    return ThreeLevelCacheManager(
        cfg, build_hierarchy_for(cfg, index), index,
        intersection_bytes=intersection_bytes, **kwargs,
    )


# -- IntersectionCache -------------------------------------------------------

def entry(pair, nbytes=1000, postings=100):
    return IntersectionEntry(pair=pair, nbytes=nbytes, postings=postings)


def test_cache_lookup_insert():
    cache = IntersectionCache(10_000)
    assert cache.lookup((1, 2)) is None
    assert cache.misses == 1
    assert cache.insert(entry((1, 2)))
    got = cache.lookup((1, 2))
    assert got is not None and got.freq == 2
    assert cache.hits == 1


def test_cache_byte_budget_eviction():
    cache = IntersectionCache(2500)
    cache.insert(entry((1, 2), nbytes=1000))
    cache.insert(entry((3, 4), nbytes=1000))
    cache.insert(entry((5, 6), nbytes=1000))  # evicts (1,2)
    assert cache.used_bytes <= 2500
    assert cache.lookup((1, 2)) is None
    assert cache.lookup((5, 6)) is not None


def test_cache_oversized_entry_rejected():
    cache = IntersectionCache(100)
    assert not cache.insert(entry((1, 2), nbytes=1000))
    assert len(cache) == 0


def test_cache_reinsert_replaces():
    cache = IntersectionCache(10_000)
    cache.insert(entry((1, 2), nbytes=1000))
    cache.insert(entry((1, 2), nbytes=2000))
    assert cache.used_bytes == 2000
    assert len(cache) == 1


def test_cache_drop():
    cache = IntersectionCache(10_000)
    cache.insert(entry((1, 2)))
    cache.drop((1, 2))
    assert len(cache) == 0 and cache.used_bytes == 0
    cache.drop((9, 9))  # no-op


def test_cache_validation():
    with pytest.raises(ValueError):
        IntersectionCache(-1)


def test_estimate():
    assert estimate_intersection_postings(100, 200, 1000) == 20
    assert estimate_intersection_postings(1, 1, 10**6) == 1
    with pytest.raises(ValueError):
        estimate_intersection_postings(1, 1, 0)


# -- ThreeLevelCacheManager -------------------------------------------------------

def test_pair_must_recur_before_admission(index):
    mgr = make_manager(index)
    mgr.process_query(Query(0, (5, 9)))
    assert len(mgr.intersections) == 0  # seen once
    mgr.process_query(Query(1, (5, 9, 14)))  # same pair again, new key
    assert len(mgr.intersections) >= 1


def test_intersection_hit_serves_pair_from_memory(index, every_pair):
    mgr = make_manager(index)
    mgr.process_query(Query(0, (5, 9)))     # admits (5, 9)
    assert len(mgr.intersections) == 1
    out = mgr.process_query(Query(1, (5, 9, 23)))
    assert mgr.intersections.hits >= 1
    # Terms 5 and 9 were served from memory; only 23 needed fetching.
    assert out.situation.name in ("S2", "S4", "S6", "S9")


def test_three_level_reduces_work_on_recurring_pairs(index, every_pair):
    stream = [Query(i, (5, 9, 10 + i % 25)) for i in range(50)]
    cfg = CacheConfig(
        mem_result_bytes=100 * KB, mem_list_bytes=512 * KB,
        ssd_result_bytes=512 * KB, ssd_list_bytes=4 * 1024 * KB,
        policy=Policy.CBLRU,
    )
    two = CacheManager(cfg, build_hierarchy_for(cfg, index), index)
    three = make_manager(index)
    for query in stream:
        two.process_query(query)
    for query in stream:
        three.process_query(query)
    assert three.intersections.hits > 10
    assert (three.stats.mean_response_us < two.stats.mean_response_us)


def test_ttl_expires_intersections(index, every_pair):
    cfg = CacheConfig(
        mem_result_bytes=100 * KB, mem_list_bytes=512 * KB,
        ssd_result_bytes=512 * KB, ssd_list_bytes=4 * 1024 * KB,
        policy=Policy.CBLRU, ttl_us=10_000.0,
    )
    mgr = ThreeLevelCacheManager(
        cfg, build_hierarchy_for(cfg, index), index,
        intersection_bytes=1024 * KB,
    )
    mgr.process_query(Query(0, (5, 9)))
    assert len(mgr.intersections) == 1
    mgr.clock.advance(50_000.0)
    mgr.process_query(Query(1, (5, 9, 23)))
    # The stale intersection was dropped, not served.
    assert mgr.intersections.hits == 0


def test_occupancy_reports_intersections(index, every_pair):
    mgr = make_manager(index)
    mgr.process_query(Query(0, (5, 9)))
    occ = mgr.occupancy()
    assert occ["intersections"] == 1
    assert occ["intersection_bytes"] > 0


def test_single_term_queries_unaffected(index, every_pair):
    mgr = make_manager(index)
    out = mgr.process_query(Query(0, (7,)))
    assert out.situation.name in ("S6", "S8")
    assert len(mgr.intersections) == 0
