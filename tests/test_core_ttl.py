"""The dynamic scenario (Section IV.B): TTL-based staleness."""

import pytest

from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.core.stats import Situation
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.query import Query

KB = 1024
TTL = 50_000.0  # us


@pytest.fixture(scope="module")
def index():
    return InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=80, seed=13))


def make_manager(index, ttl_us=TTL, policy=Policy.CBLRU, **overrides):
    kwargs = dict(
        mem_result_bytes=200 * KB,
        mem_list_bytes=512 * KB,
        ssd_result_bytes=512 * KB,
        ssd_list_bytes=4 * 1024 * KB,
        policy=policy,
        ttl_us=ttl_us,
    )
    kwargs.update(overrides)
    cfg = CacheConfig(**kwargs)
    return CacheManager(cfg, build_hierarchy_for(cfg, index), index)


def q(qid, *terms):
    return Query(query_id=qid, terms=terms)


def test_ttl_zero_never_expires(index):
    mgr = make_manager(index, ttl_us=0.0)
    mgr.process_query(q(0, 3))
    mgr.clock.advance(10**9)
    out = mgr.process_query(q(0, 3))
    assert out.situation is Situation.S1
    assert mgr.stats.expired_results == 0


def test_fresh_hit_within_ttl(index):
    mgr = make_manager(index)
    mgr.process_query(q(0, 3))
    out = mgr.process_query(q(0, 3))
    assert out.situation is Situation.S1


def test_expired_result_recomputes(index):
    mgr = make_manager(index)
    first = mgr.process_query(q(0, 3))
    mgr.clock.advance(2 * TTL)
    out = mgr.process_query(q(0, 3))
    assert out.result_hit_level == 0
    assert mgr.stats.expired_results >= 1
    # The recomputed entry is fresh again.
    again = mgr.process_query(q(0, 3))
    assert again.situation is Situation.S1


def test_expired_list_rereads_from_store(index):
    mgr = make_manager(index)
    mgr.process_query(q(0, 7))
    mgr.clock.advance(2 * TTL)
    out = mgr.process_query(q(1, 7, 9))  # different key, shares term 7
    assert mgr.stats.expired_lists >= 1
    assert out.situation in (Situation.S6, Situation.S8, Situation.S9, Situation.S7)


def test_expired_l2_result_dropped(index):
    mgr = make_manager(index, mem_result_bytes=20 * KB)  # 1 entry
    mgr.process_query(q(0, 3))
    mgr.process_query(q(1, 4))
    mgr.process_query(q(2, 5))
    # Ensure something made it to the SSD result map or the write buffer.
    mgr.clock.advance(2 * TTL)
    keys_before = set(mgr.result_cache.l2_map)
    for key in list(keys_before):
        out = mgr.process_query(Query(50, key))
        assert out.result_hit_level == 0
    assert mgr.stats.expired_results >= len(keys_before)


def test_ttl_costs_performance(index):
    """Expiry converts hits into recomputes, so TTL must cost time."""
    stream = [q(i % 6, 1 + i % 6) for i in range(60)]
    static = make_manager(index, ttl_us=0.0)
    dynamic = make_manager(index, ttl_us=100.0)  # expires almost instantly
    for query in stream:
        static.process_query(query)
    for query in stream:
        dynamic.process_query(query)
    assert dynamic.stats.mean_response_us > static.stats.mean_response_us
    assert dynamic.stats.expired_results > 0


def test_static_entries_refresh_in_place(index):
    from repro.engine.querylog import QueryLogConfig, generate_query_log

    log = generate_query_log(QueryLogConfig(
        num_queries=300, distinct_queries=60, vocab_size=80,
        singleton_fraction=0.0, seed=2))
    mgr = make_manager(index, policy=Policy.CBSLRU,
                       ssd_result_bytes=1024 * KB)
    mgr.warmup_static(log, analyze_queries=300)
    assert mgr.result_cache.static
    key = next(iter(mgr.result_cache.static))
    mgr.clock.advance(2 * TTL)
    mgr.process_query(Query(500, key))  # stale -> recompute -> refresh
    assert mgr.stats.static_refreshes >= 1
    assert key in mgr.result_cache.static  # still pinned
    out = mgr.process_query(Query(501, key))
    assert out.situation is Situation.S1  # fresh L1 copy from the recompute


def test_ttl_validation():
    with pytest.raises(ValueError):
        CacheConfig(ttl_us=-1.0)
