"""Cache-manager behaviour: QM, SM, RM across policies and schemes."""

import pytest

from repro.core.config import CacheConfig, Policy, Scheme
from repro.core.entries import EntryState
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.core.stats import Situation
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.query import Query

KB = 1024
MB = 1024 * KB


@pytest.fixture(scope="module")
def index():
    return InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=80, seed=13))


def make_manager(
    index,
    policy=Policy.CBLRU,
    scheme=Scheme.HYBRID,
    mem_rc=2,          # capacities in result-entry / block units
    mem_lc_bytes=512 * KB,
    ssd_rc_blocks=4,
    ssd_lc_blocks=16,
    **overrides,
):
    cfg = CacheConfig(
        mem_result_bytes=mem_rc * 20 * KB,
        mem_list_bytes=mem_lc_bytes,
        ssd_result_bytes=ssd_rc_blocks * 128 * KB,
        ssd_list_bytes=ssd_lc_blocks * 128 * KB,
        policy=policy,
        scheme=scheme,
        **overrides,
    )
    hierarchy = build_hierarchy_for(cfg, index)
    return CacheManager(cfg, hierarchy, index)


def q(qid, *terms):
    return Query(query_id=qid, terms=terms)


# -- result cache ------------------------------------------------------------

def test_first_query_misses_then_hits_l1(index):
    mgr = make_manager(index)
    first = mgr.process_query(q(0, 3))
    assert first.result_hit_level == 0
    assert first.situation in (Situation.S8, Situation.S6)
    second = mgr.process_query(q(0, 3))
    assert second.result_hit_level == 1
    assert second.situation is Situation.S1
    assert second.response_us < first.response_us


def test_result_eviction_cascades_to_ssd_via_write_buffer(index):
    mgr = make_manager(index, mem_rc=2)
    n_flush = mgr.config.entries_per_rb
    # Fill L1 (2 entries) then evict enough entries to assemble one RB.
    for i in range(2 + n_flush):
        mgr.process_query(q(i, 1 + i % 10))
    assert mgr.stats.ssd_result_writes >= 1
    assert len(mgr.result_cache.l2_map) >= n_flush


def test_staged_write_buffer_entry_counts_as_memory_hit(index):
    mgr = make_manager(index, mem_rc=2)
    mgr.process_query(q(0, 3))
    mgr.process_query(q(1, 4))
    mgr.process_query(q(2, 5))  # evicts query 0 into the write buffer
    assert (3,) in mgr.result_cache.write_buffer
    out = mgr.process_query(q(0, 3))
    assert out.situation is Situation.S1
    assert (3,) not in mgr.result_cache.write_buffer  # pulled back into L1


def test_l2_result_hit_marks_replaceable_and_skips_rewrite(index):
    mgr = make_manager(index, mem_rc=2)
    n_flush = mgr.config.entries_per_rb
    for i in range(2 + n_flush):
        mgr.process_query(q(i, 1 + i % 10))
    # One of the flushed entries is on SSD: hit it.
    key = next(iter(mgr.result_cache.l2_map))
    out = mgr.process_query(Query(99, key))
    assert out.situation is Situation.S3
    entry = mgr.result_cache.l2_map[key]
    assert entry.state is EntryState.REPLACEABLE
    writes_before = mgr.stats.ssd_result_writes
    # Evict it from L1 again: the SSD copy is reused, no rewrite needed.
    for i in range(100, 100 + 2 + n_flush):
        mgr.process_query(q(i, 1 + i % 10))
    assert mgr.stats.ssd_writes_avoided >= 1
    assert mgr.result_cache.l2_map[key].state is EntryState.NORMAL


def test_rb_victim_is_max_iren_in_replace_first_region(index):
    mgr = make_manager(index, mem_rc=2, ssd_rc_blocks=3)
    n_flush = mgr.config.entries_per_rb
    # Many distinct queries (more than 3 RBs hold) force RB overwrites.
    for i in range(2 + n_flush * 8):
        mgr.process_query(q(i, 1 + i % 10, 20 + i % 40))
    assert len(mgr.result_cache.rb_map) <= 3
    assert mgr.stats.ssd_result_writes > 3  # overwrites happened


def test_lru_policy_writes_entries_individually(index):
    mgr = make_manager(index, policy=Policy.LRU, mem_rc=2)
    for i in range(8):
        mgr.process_query(q(i, 1 + i % 10))
    # Baseline writes one entry at a time (no RB assembly).
    assert mgr.stats.ssd_result_writes >= 4
    assert len(mgr.result_cache.rb_map) == 0
    assert all(e.rb_id is None for e in mgr.result_cache.l2_map.values())


def test_lru_l2_result_hit_and_reeviction_rewrites(index):
    mgr = make_manager(index, policy=Policy.LRU, mem_rc=1)
    mgr.process_query(q(0, 3))
    mgr.process_query(q(1, 4))  # evicts q0 to SSD
    assert (3,) in mgr.result_cache.l2_map
    out = mgr.process_query(q(0, 3))  # L2 hit
    assert out.situation is Situation.S3
    writes = mgr.stats.ssd_result_writes
    mgr.process_query(q(2, 5))  # evicts q0 again -> baseline rewrites
    assert mgr.stats.ssd_result_writes > writes
    assert mgr.stats.ssd_writes_avoided == 0


# -- inverted-list cache ----------------------------------------------------------

def test_shared_term_hits_memory_list_cache(index):
    mgr = make_manager(index, mem_lc_bytes=4 * MB)
    mgr.process_query(q(0, 7))
    out = mgr.process_query(q(1, 7, 9))  # term 7 now cached in memory
    assert out.situation in (Situation.S2, Situation.S4, Situation.S6, Situation.S9)
    assert mgr.stats.list_l1_hits >= 1


def test_list_eviction_lands_on_ssd_and_hits(index):
    mgr = make_manager(index, mem_lc_bytes=256 * KB, ssd_lc_blocks=32)
    terms = list(range(10, 22))
    for i, t in enumerate(terms):
        mgr.process_query(q(i, t))
    assert len(mgr.list_cache.l2) >= 1
    # Query a term whose list sits on SSD only (with a fresh second term
    # so the result cache cannot satisfy the query).
    ssd_terms = [t for t in mgr.list_cache.l2.keys() if mgr.l1_lists.get(t) is None]
    assert ssd_terms
    out = mgr.process_query(Query(100, (ssd_terms[0], 79)))
    assert mgr.stats.list_l2_hits + mgr.stats.list_partial_hits >= 1
    assert out.situation in (Situation.S5, Situation.S7, Situation.S4, Situation.S9)


def test_l2_list_hit_marks_replaceable(index):
    mgr = make_manager(index, mem_lc_bytes=256 * KB, ssd_lc_blocks=32)
    for i, t in enumerate(range(10, 22)):
        mgr.process_query(q(i, t))
    ssd_terms = [t for t in mgr.list_cache.l2.keys() if mgr.l1_lists.get(t) is None]
    t0 = ssd_terms[0]
    mgr.process_query(Query(100, (t0, 79)))
    entry = mgr.list_cache.l2.get(t0)
    assert entry is not None
    assert entry.state is EntryState.REPLACEABLE


def test_tev_discards_low_value_lists(index):
    mgr = make_manager(index, mem_lc_bytes=256 * KB, tev=10**9)
    for i, t in enumerate(range(10, 30)):
        mgr.process_query(q(i, t))
    assert mgr.stats.discarded_by_tev > 0
    assert len(mgr.list_cache.l2) == 0


def test_block_region_allocation_is_whole_blocks(index):
    mgr = make_manager(index, mem_lc_bytes=256 * KB, ssd_lc_blocks=32)
    for i, t in enumerate(range(10, 26)):
        mgr.process_query(q(i, t))
    for entry in (mgr.list_cache.l2.get(k) for k in mgr.list_cache.l2.keys()):
        assert entry.blocks  # placed as whole blocks
        assert entry.lba_byte is None


def test_lru_list_placement_is_byte_granular(index):
    mgr = make_manager(index, policy=Policy.LRU, mem_lc_bytes=256 * KB)
    for i, t in enumerate(range(10, 26)):
        mgr.process_query(q(i, t))
    placed = [mgr.list_cache.l2.get(k) for k in mgr.list_cache.l2.keys()]
    assert placed
    for entry in placed:
        assert not entry.blocks
        assert entry.lba_byte is not None


def test_l2_list_replacement_under_pressure(index):
    """Filling the SSD list region must evict, not fail."""
    mgr = make_manager(index, mem_lc_bytes=256 * KB, ssd_lc_blocks=4)
    for i, t in enumerate(range(10, 60)):
        mgr.process_query(q(i, t))
    used = sum(len(mgr.list_cache.l2.get(k).blocks) for k in mgr.list_cache.l2.keys())
    assert used <= 4
    stages = (mgr.stats.evict_stage_replaceable + mgr.stats.evict_stage_size_match
              + mgr.stats.evict_stage_assemble + mgr.stats.evict_stage_fallback)
    assert stages > 0


# -- schemes ----------------------------------------------------------------------

def test_exclusive_scheme_drops_l2_copy_on_hit(index):
    mgr = make_manager(index, scheme=Scheme.EXCLUSIVE,
                       mem_lc_bytes=256 * KB, ssd_lc_blocks=32)
    for i, t in enumerate(range(10, 22)):
        mgr.process_query(q(i, t))
    ssd_terms = [t for t in mgr.list_cache.l2.keys() if mgr.l1_lists.get(t) is None]
    t0 = ssd_terms[0]
    mgr.process_query(Query(100, (t0, 79)))
    assert mgr.list_cache.l2.get(t0) is None  # removed after read-back


def test_inclusive_scheme_writes_through(index):
    mgr = make_manager(index, scheme=Scheme.INCLUSIVE, mem_rc=4)
    for i in range(mgr.config.entries_per_rb):
        mgr.process_query(q(i, 1 + i))
    # Entries were pushed to the write buffer at insert time, before any
    # eviction happened.
    assert len(mgr.result_cache.l1) <= 4
    assert mgr.result_cache.write_buffer.flushes + len(mgr.result_cache.write_buffer) > 0


# -- accounting / wiring -------------------------------------------------------------

def test_l1_occupancy_never_exceeds_capacity(index):
    mgr = make_manager(index, mem_rc=3, mem_lc_bytes=512 * KB)
    for i in range(40):
        mgr.process_query(q(i, 1 + i % 15, 16 + i % 7))
        occ = mgr.occupancy()
        assert occ["l1_result_bytes"] <= mgr.config.mem_result_bytes
        assert occ["l1_list_bytes"] <= mgr.config.mem_list_bytes


def test_clock_advances_monotonically(index):
    mgr = make_manager(index)
    last = 0.0
    for i in range(10):
        mgr.process_query(q(i, 1 + i))
        assert mgr.clock.now_us > last
        last = mgr.clock.now_us


def test_situation_table_probabilities_sum_to_one(index):
    mgr = make_manager(index)
    for i in range(30):
        mgr.process_query(q(i % 7, 1 + i % 12))
    probs = [p for _, p, _ in mgr.stats.situation_table()]
    assert sum(probs) == pytest.approx(1.0)


def test_one_level_config_runs_without_ssd(index):
    cfg = CacheConfig(
        mem_result_bytes=40 * KB, mem_list_bytes=512 * KB,
        ssd_result_bytes=0, ssd_list_bytes=0,
    )
    mgr = CacheManager(cfg, build_hierarchy_for(cfg, index), index)
    for i in range(20):
        mgr.process_query(q(i % 2, 1 + i % 2))  # reuse distance < capacity
    assert mgr.ssd is None
    assert mgr.stats.queries == 20
    assert mgr.stats.result_l1_hits > 0


def test_ssd_too_small_rejected(index):
    from repro.flash.constants import FlashConfig
    from repro.storage.hierarchy import HierarchyConfig, StorageHierarchy

    cfg = CacheConfig(ssd_result_bytes=100 * MB, ssd_list_bytes=100 * MB)
    tiny = StorageHierarchy(HierarchyConfig(ssd_config=FlashConfig(num_blocks=32)))
    with pytest.raises(ValueError):
        CacheManager(cfg, tiny, index)


def test_build_hierarchy_sizes_ssd_to_cache(index):
    cfg = CacheConfig(ssd_result_bytes=8 * MB, ssd_list_bytes=64 * MB)
    h = build_hierarchy_for(cfg, index)
    assert h.ssd.capacity_bytes >= cfg.ssd_cache_bytes


# -- CBSLRU static partition --------------------------------------------------------

def test_warmup_static_requires_cbslru(index):
    mgr = make_manager(index, policy=Policy.CBLRU)
    with pytest.raises(ValueError):
        mgr.warmup_static(None)


def test_warmup_static_places_and_pins(index, small_log=None):
    from repro.engine.querylog import QueryLogConfig, generate_query_log

    log = generate_query_log(
        QueryLogConfig(num_queries=400, distinct_queries=100, vocab_size=80, seed=2)
    )
    mgr = make_manager(index, policy=Policy.CBSLRU,
                       ssd_rc_blocks=8, ssd_lc_blocks=32, static_fraction=0.5)
    info = mgr.warmup_static(log)
    assert info["static_results"] > 0
    assert info["static_lists"] > 0
    assert info["static_list_blocks"] <= info["static_list_blocks_budget"]
    # Static entries serve hits and are never evicted.
    static_key = next(iter(mgr.result_cache.static))
    out = mgr.process_query(Query(999, static_key))
    assert out.situation is Situation.S3
    # Run pressure; static entries must survive.
    for i in range(60):
        mgr.process_query(q(i, 1 + i % 30))
    assert static_key in mgr.result_cache.static
    assert len(mgr.list_cache.static) == info["static_lists"]
