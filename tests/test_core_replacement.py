"""The paper's replacement rules and the one setting that selects them.

LRU, CBLRU and CBSLRU are values of ``CacheConfig.policy``.  The first
tests pin what each value switches; the rest check Fig. 12 and Fig. 13
directly against the paper's rules, not against recorded golden counts.
"""

import pytest

from repro.core.config import CacheConfig, Policy
from repro.core.entries import CachedList, EntryState
from repro.core.lru import LruList
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.core.replacement import Replacement
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.obs import Telemetry

KB = 1024


@pytest.fixture(scope="module")
def index():
    return InvertedIndex(CorpusConfig(num_docs=3000, vocab_size=60, seed=21))


def make_manager(index, policy, ssd_list_bytes=2048 * KB, ssd_result_bytes=512 * KB):
    cfg = CacheConfig(
        mem_result_bytes=100 * KB,
        mem_list_bytes=384 * KB,
        ssd_result_bytes=ssd_result_bytes,
        ssd_list_bytes=ssd_list_bytes,
        policy=policy,
    )
    return CacheManager(cfg, build_hierarchy_for(cfg, index), index)


# -- the setting ---------------------------------------------------------------

def test_policy_traits(index):
    """LRU is byte-granular everywhere; CBLRU and CBSLRU place whole
    Formula 1 blocks; only CBSLRU provisions the static partition."""
    for policy, cost_based, static in ((Policy.LRU, False, False),
                                       (Policy.CBLRU, True, False),
                                       (Policy.CBSLRU, True, True)):
        mgr = make_manager(index, policy)
        assert mgr.policy.cost_based is cost_based, policy
        assert mgr.selection.cost_based is cost_based, policy
        for layer in (mgr.result_cache, mgr.list_cache):
            assert (layer.region is not None) is cost_based, policy
            assert (layer.byte_region is None) is cost_based, policy
        assert mgr.config.uses_static is static, policy
        assert not mgr.config.one_level().uses_static


def test_warmup_static_needs_cbslru_and_an_ssd(index, small_log):
    with pytest.raises(ValueError, match="only applies to the CBSLRU policy"):
        make_manager(index, Policy.CBLRU).warmup_static(small_log)
    memory_only = make_manager(index, Policy.CBSLRU, ssd_list_bytes=0,
                               ssd_result_bytes=0)
    with pytest.raises(ValueError, match="needs an SSD tier"):
        memory_only.warmup_static(small_log)


# -- Fig. 12: the memory list victim -----------------------------------------

def _l1_lists(freqs):
    """An L1 list LRU, least recent first, one 128 KB prefix per term."""
    lists = LruList(replace_window=5)
    for term_id, freq in enumerate(freqs):
        lists.insert(term_id, CachedList(term_id=term_id, cached_bytes=128 * KB,
                                         total_bytes=256 * KB, pu=1.0, freq=freq))
    return lists


def test_lru_victim_is_the_recency_tail_despite_a_lower_ev_in_the_window():
    # Term 0 is least recent but hot; term 1, inside the window, has the
    # lowest EV = freq / SC.
    lists = _l1_lists([9, 1, 5, 5, 5, 5])
    lru = CacheConfig(policy=Policy.LRU)
    cblru = CacheConfig(policy=Policy.CBLRU)
    assert Replacement(lru).pick_l1_list_victim(lists, None, lru) == 0
    assert Replacement(lru).pick_l1_list_victim(lists, 0, lru) == 1
    # The cost-based rule takes the min-EV entry of the same window.
    assert Replacement(cblru).pick_l1_list_victim(lists, None, cblru) == 1


# -- Fig. 13: the staged SSD list search ---------------------------------------

def _plant_l2(mgr, entries):
    """Fill the SSD list region with ``(term, blocks, state)``, least
    recent first, and record each victim's Fig. 13 stage."""
    lc = mgr.list_cache
    for term_id, nblocks, state in entries:
        lc.l2.insert(term_id, CachedList(
            term_id=term_id, cached_bytes=nblocks * mgr.config.block_bytes,
            total_bytes=nblocks * mgr.config.block_bytes, pu=1.0,
            blocks=lc.region.alloc(nblocks), state=state))
    assert lc.region.free_count == 0
    stages = []
    mgr.events.subscribe(on_l2_victim=lambda e: stages.append((e.key, e.stage)))
    return lc, stages


def test_fig13_drops_a_replaceable_entry_before_a_size_matched_normal_one(index):
    mgr = make_manager(index, Policy.CBLRU, ssd_list_bytes=4 * 128 * KB)
    # LRU first: term 1 is NORMAL and exactly the size needed; term 2 is
    # REPLACEABLE (its data already has a memory copy).
    lc, stages = _plant_l2(mgr, [(1, 2, EntryState.NORMAL),
                                 (2, 2, EntryState.REPLACEABLE)])
    mgr.policy.free_list_space(lc, 2)
    assert stages == [(2, "replaceable")]
    assert 1 in lc.l2 and 2 not in lc.l2
    assert lc.region.free_count == 2


def test_fig13_takes_a_size_match_before_assembling(index):
    mgr = make_manager(index, Policy.CBLRU, ssd_list_bytes=4 * 128 * KB)
    # Terms 1 and 2 could be assembled into the two blocks needed, but
    # term 3 matches the deficit on its own.
    lc, stages = _plant_l2(mgr, [(1, 1, EntryState.NORMAL),
                                 (2, 1, EntryState.NORMAL),
                                 (3, 2, EntryState.NORMAL)])
    mgr.policy.free_list_space(lc, 2)
    assert stages == [(3, "size-match")]
    assert 1 in lc.l2 and 2 in lc.l2
    assert lc.region.free_count == 2


@pytest.mark.parametrize("entries, needed, stage", [
    ([(1, 2, EntryState.NORMAL), (2, 2, EntryState.REPLACEABLE)], 2,
     "replaceable"),
    ([(1, 1, EntryState.NORMAL), (2, 2, EntryState.NORMAL)], 2, "size-match"),
    ([(1, 1, EntryState.NORMAL), (2, 1, EntryState.NORMAL),
      (3, 1, EntryState.NORMAL)], 2, "assemble"),
    ([(t, 1, EntryState.NORMAL) for t in range(1, 8)], 6, "fallback"),
])
def test_fig13_victims_are_capacity_evictions(index, entries, needed, stage):
    """Every entry a Fig. 13 stage drops is evicted for capacity, in its
    ``evict`` event and in ``cache_evicts_total``, as an L1 capacity
    eviction is: the search frees room, nothing invalidated the data."""
    tel = Telemetry(trace=False)
    cfg = CacheConfig(mem_result_bytes=100 * KB, mem_list_bytes=384 * KB,
                      ssd_result_bytes=512 * KB,
                      ssd_list_bytes=sum(n for _, n, _ in entries) * 128 * KB,
                      policy=Policy.CBLRU)
    mgr = CacheManager(cfg, build_hierarchy_for(cfg, index), index,
                       telemetry=tel)
    lc, stages = _plant_l2(mgr, entries)
    evicts = []
    mgr.events.subscribe(on_evict=lambda e: evicts.append((e.key, e.reason)))
    mgr.policy.free_list_space(lc, needed)
    assert stage in {s for _, s in stages}
    assert evicts == [(key, "capacity") for key, _ in stages]
    counts = {tuple(sorted(tags.items())): c.value
              for name, tags, c in tel.registry.items()
              if name == "cache_evicts_total"}
    assert counts == {(("kind", "list"), ("level", "l2"),
                       ("reason", "capacity")): len(stages)}
