"""Targeted cache-manager path coverage: scheme-specific list flows,
warmup budgets, and configuration presets."""

import pytest

from repro.core.config import CacheConfig, Policy, Scheme
from repro.core.entries import EntryState
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.query import Query
from repro.engine.querylog import QueryLogConfig, generate_query_log
from repro.flash.constants import FlashConfig

KB = 1024


@pytest.fixture(scope="module")
def index():
    return InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=80, seed=13))


def build(index, **overrides):
    kwargs = dict(
        mem_result_bytes=100 * KB,
        mem_list_bytes=384 * KB,
        ssd_result_bytes=512 * KB,
        ssd_list_bytes=2048 * KB,
        policy=Policy.CBLRU,
        scheme=Scheme.HYBRID,
    )
    kwargs.update(overrides)
    cfg = CacheConfig(**kwargs)
    return CacheManager(cfg, build_hierarchy_for(cfg, index), index)


def test_exclusive_list_reeviction_rewrites(index):
    """Under the exclusive scheme, a promoted list's SSD copy is deleted,
    so its next eviction must write again (no replaceable skip)."""
    mgr = build(index, scheme=Scheme.EXCLUSIVE, mem_list_bytes=256 * KB)
    for i, t in enumerate(range(10, 22)):
        mgr.process_query(Query(i, (t,)))
    writes_before = mgr.stats.ssd_list_writes
    ssd_terms = [t for t in mgr.list_cache.l2.keys() if mgr.l1_lists.get(t) is None]
    t0 = ssd_terms[0]
    mgr.process_query(Query(100, (t0, 79)))        # promote: SSD copy removed
    assert mgr.list_cache.l2.get(t0) is None
    for i, t in enumerate(range(30, 42)):           # force t0 out of L1 again
        mgr.process_query(Query(200 + i, (t,)))
    assert mgr.stats.ssd_list_writes > writes_before
    assert mgr.stats.ssd_writes_avoided == 0
    mgr.check_invariants()


def test_hybrid_list_reeviction_skips_rewrite(index):
    """Same flow under hybrid: the REPLACEABLE copy is revalidated."""
    mgr = build(index, mem_list_bytes=256 * KB)
    for i, t in enumerate(range(10, 22)):
        mgr.process_query(Query(i, (t,)))
    ssd_terms = [t for t in mgr.list_cache.l2.keys() if mgr.l1_lists.get(t) is None]
    t0 = ssd_terms[0]
    mgr.process_query(Query(100, (t0, 79)))
    entry = mgr.list_cache.l2.get(t0)
    assert entry is not None and entry.state is EntryState.REPLACEABLE
    avoided_before = mgr.stats.ssd_writes_avoided
    for i, t in enumerate(range(30, 42)):
        mgr.process_query(Query(200 + i, (t,)))
    if mgr.list_cache.l2.get(t0) is not None:  # unless evicted by pressure
        assert mgr.stats.ssd_writes_avoided >= avoided_before
    mgr.check_invariants()


def test_warmup_static_respects_block_budget(index):
    log = generate_query_log(QueryLogConfig(
        num_queries=600, distinct_queries=200, vocab_size=80,
        singleton_fraction=0.0, seed=6))
    mgr = build(index, policy=Policy.CBSLRU, static_fraction=0.25,
                ssd_result_bytes=1024 * KB, ssd_list_bytes=4096 * KB)
    info = mgr.warmup_static(log)
    assert info["static_list_blocks"] <= info["static_list_blocks_budget"]
    rc_blocks_used = -(-info["static_results"] * 20 * KB // (128 * KB))
    assert rc_blocks_used <= info["static_result_blocks_budget"] + 1
    # Dynamic region kept the remaining blocks.
    assert mgr.list_cache.region.free_count >= (
        mgr.config.ssd_list_blocks - info["static_list_blocks_budget"]
    ) - 1
    mgr.check_invariants()


def test_warmup_static_never_pins_singletons(index):
    """Queries seen once in the analysed prefix are never pinned (with a
    tiny vocabulary some 'singletons' collide into genuine repeats; those
    may be pinned — every pinned entry must carry freq >= 2)."""
    log = generate_query_log(QueryLogConfig(
        num_queries=150, distinct_queries=150, vocab_size=80,
        singleton_fraction=1.0, query_zipf_s=0.01, seed=7))
    mgr = build(index, policy=Policy.CBSLRU)
    mgr.warmup_static(log, analyze_queries=150)
    for entry in mgr.result_cache.static.values():
        assert entry.freq >= 2


def test_query_outcome_fields(index):
    mgr = build(index)
    out = mgr.process_query(Query(0, (5,)))
    assert out.query.key == (5,)
    assert out.result_hit_level == 0
    assert out.response_us > 0
    out2 = mgr.process_query(Query(0, (5,)))
    assert out2.result_hit_level == 1


def test_section6_flash_preset():
    cfg = FlashConfig.section6(num_blocks=64)
    assert cfg.read_us == 20.0
    assert cfg.write_us == 250.0
    assert cfg.erase_us == 1500.0
    assert cfg.name == "section6"


def test_table3_flash_preset_defaults():
    cfg = FlashConfig.table3()
    assert cfg.page_bytes == 2048
    assert cfg.pages_per_block == 64
    assert cfg.block_bytes == 128 * 1024
    assert cfg.read_us == pytest.approx(32.725)
    assert cfg.write_us == pytest.approx(101.475)
    assert cfg.erase_us == pytest.approx(1500.0)


def test_flash_config_validation_extras():
    with pytest.raises(ValueError):
        FlashConfig(channels=0)
    with pytest.raises(ValueError):
        FlashConfig(page_bytes=1000)
    with pytest.raises(ValueError):
        FlashConfig(num_blocks=1, gc_free_block_threshold=2)
    with pytest.raises(ValueError):
        FlashConfig(overprovision=1.0)


def test_manager_with_materialized_results(index):
    mgr = CacheManager(
        CacheConfig(mem_result_bytes=100 * KB, mem_list_bytes=256 * KB,
                    ssd_result_bytes=512 * KB, ssd_list_bytes=1024 * KB),
        build_hierarchy_for(
            CacheConfig(mem_result_bytes=100 * KB, mem_list_bytes=256 * KB,
                        ssd_result_bytes=512 * KB, ssd_list_bytes=1024 * KB),
            index),
        index,
        materialize_results=True,
    )
    out = mgr.process_query(Query(0, (3, 9)))
    assert out.response_us > 0


def test_write_buffer_drain_after_run(index):
    mgr = build(index, mem_result_bytes=40 * KB)
    for i in range(10):
        mgr.process_query(Query(i, (1 + i,)))
    staged = mgr.result_cache.write_buffer.drain()
    assert len(mgr.result_cache.write_buffer) == 0
    for entry in staged:
        assert entry.nbytes == mgr.config.result_entry_bytes


def test_serving_a_query_never_sorts_its_key(index, monkeypatch):
    """``Query.key`` is fixed at construction, so the serving path — result
    lookup, planning, admission — calls ``sorted``
    zero times, hit or miss."""
    import builtins

    mgr = build(index)
    queries = [Query(i % 4, (1 + i % 4, 9, 30 + i % 2, 9)) for i in range(40)]
    calls = []
    real_sorted = builtins.sorted

    def counting_sorted(*args, **kwargs):
        calls.append(args)
        return real_sorted(*args, **kwargs)

    monkeypatch.setattr(builtins, "sorted", counting_sorted)
    for q in queries:
        mgr.process_query(q)
    assert calls == []
    assert mgr.stats.result_l1_hits > 0 and mgr.stats.result_misses > 0


def test_drop_l2_of_an_unplaced_entry_touches_no_device(index, monkeypatch):
    """An L2 list entry holding neither blocks nor a byte extent has
    nothing on flash: dropping it must not TRIM or free anything (it used
    to reach ``ssd.trim(None, ...)`` through an always-true ``hasattr``
    test) and still announces the eviction."""
    from repro.core.entries import CachedList

    mgr = build(index, policy=Policy.LRU)
    cache = mgr.list_cache
    cache.l2.insert(5, CachedList(term_id=5, cached_bytes=4096,
                                  total_bytes=8192, pu=0.5))
    evicted = []
    mgr.events.subscribe(on_evict=evicted.append)
    device_calls = []
    for name in ("read", "write", "trim"):
        monkeypatch.setattr(
            mgr.ssd, name, lambda *a, _n=name: device_calls.append((_n, a)))
    free_before = cache.byte_region.free_sectors

    cache.drop_l2(5, trim=True, reason="invalidate")

    assert device_calls == []
    assert cache.byte_region.free_sectors == free_before
    assert cache.l2.get(5) is None
    assert [(e.kind, e.key, e.level, e.nbytes, e.reason) for e in evicted] == [
        ("list", 5, "l2", 4096, "invalidate")]
