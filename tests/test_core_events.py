"""The cache event-hook seam: subscription mechanics, the observed gate,
and the replacement counters the caches keep without any subscriber."""

import pytest

from repro.core import events as core_events
from repro.core import list_cache, replacement, result_cache
from repro.core.config import CacheConfig, Policy, Scheme
from repro.core.events import AdmitEvent, CacheEvents, EventCounter, FlushEvent
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig, build_corpus_stats
from repro.engine.index import InvertedIndex
from repro.engine.query import Query
from repro.workloads.sweep import make_log_for

KB = 1024


@pytest.fixture(scope="module")
def index():
    return InvertedIndex(CorpusConfig(num_docs=3000, vocab_size=60, seed=23))


def make_manager(index, policy=Policy.CBLRU, scheme=Scheme.HYBRID, **overrides):
    kwargs = dict(
        mem_result_bytes=100 * KB,
        mem_list_bytes=384 * KB,
        ssd_result_bytes=512 * KB,
        ssd_list_bytes=2048 * KB,
        policy=policy,
        scheme=scheme,
    )
    kwargs.update(overrides)
    cfg = CacheConfig(**kwargs)
    return CacheManager(cfg, build_hierarchy_for(cfg, index), index)


# -- bus mechanics -----------------------------------------------------------

def test_subscribe_and_unsubscribe():
    events = CacheEvents()
    seen = []
    unsubscribe = events.subscribe(on_admit=seen.append)
    event = AdmitEvent(kind="result", key=(1,), level="l1", nbytes=10)
    events.admit(event)
    assert seen == [event]
    unsubscribe()
    events.admit(event)
    assert len(seen) == 1


def test_observed_follows_subscriptions_and_one_hook_is_bound_directly():
    def hook(event):
        pass

    events = CacheEvents()
    assert events.observed is False
    unsubscribe = events.subscribe(on_flush=hook)
    assert events.observed is True
    # A lone subscriber is the emitter itself: no dispatch frame.
    assert events.flush is hook
    unsubscribe()
    assert events.observed is False


def test_partial_subscription_only_receives_requested_hooks():
    events = CacheEvents()
    flushes = []
    events.subscribe(on_flush=flushes.append)
    events.admit(AdmitEvent(kind="result", key=(1,), level="l1"))
    events.flush(FlushEvent(kind="list", lba=0, nbytes=128 * KB))
    assert len(flushes) == 1 and flushes[0].kind == "list"


def test_failing_subscriber_does_not_starve_later_subscribers():
    """Dispatch contract: every hook runs, then the first error surfaces."""
    events = CacheEvents()
    calls = []

    def boom(event):
        calls.append("boom")
        raise RuntimeError("observer bug")

    events.subscribe(on_admit=boom)
    events.subscribe(on_admit=lambda e: calls.append("late"))
    with pytest.raises(RuntimeError, match="observer bug"):
        events.admit(AdmitEvent(kind="result", key=(1,), level="l1"))
    assert calls == ["boom", "late"]


def test_first_of_several_exceptions_is_reraised():
    events = CacheEvents()
    events.subscribe(on_flush=lambda e: (_ for _ in ()).throw(ValueError("first")))
    events.subscribe(on_flush=lambda e: (_ for _ in ()).throw(KeyError("second")))
    with pytest.raises(ValueError, match="first"):
        events.flush(FlushEvent(kind="result", lba=0, nbytes=1))


def test_event_counter_merge_sums_key_wise():
    a_bus, b_bus = CacheEvents(), CacheEvents()
    a, b = EventCounter(a_bus), EventCounter(b_bus)
    a_bus.flush(FlushEvent(kind="result", lba=0, nbytes=1))
    b_bus.flush(FlushEvent(kind="result", lba=0, nbytes=1))
    b_bus.flush(FlushEvent(kind="list", lba=0, nbytes=1))  # key a never saw
    total = EventCounter()  # detached aggregator, no bus
    assert total.merge(a).merge(b) is total
    assert total.get("flush", "result") == 2
    assert total.get("flush", "list") == 1
    assert a.get("flush", "result") == 1  # merge does not mutate sources


def test_event_counter_counts_by_hook_and_kind():
    events = CacheEvents()
    counter = EventCounter(events)
    events.flush(FlushEvent(kind="result", lba=0, nbytes=1))
    events.flush(FlushEvent(kind="result", lba=0, nbytes=1))
    events.flush(FlushEvent(kind="list", lba=0, nbytes=1))
    assert counter.get("flush", "result") == 2
    assert counter.get("flush", "list") == 1
    assert counter.get("evict", "result") == 0
    counter.close()
    events.flush(FlushEvent(kind="result", lba=0, nbytes=1))
    assert counter.get("flush", "result") == 2


# -- the manager emits a faithful event stream -------------------------------

def test_flush_events_match_ssd_write_counters(index):
    mgr = make_manager(index)
    counter = EventCounter(mgr.events)
    for i in range(250):
        mgr.process_query(Query(i % 60, (1 + i % 25, 26 + i % 20)))
    assert mgr.stats.ssd_result_writes > 0
    assert mgr.stats.ssd_list_writes > 0
    assert counter.get("flush", "result") == mgr.stats.ssd_result_writes
    assert counter.get("flush", "list") == mgr.stats.ssd_list_writes


def test_tev_discards_and_revalidations_flow_through_events(index):
    mgr = make_manager(index, tev=2.0)
    tev_discards = []
    revalidations = []
    mgr.events.subscribe(
        on_evict=lambda e: tev_discards.append(e) if e.reason == "tev" else None,
        on_admit=lambda e: revalidations.append(e) if e.reason == "revalidate" else None,
    )
    for i in range(250):
        mgr.process_query(Query(i % 60, (1 + i % 25, 26 + i % 20)))
    assert len(tev_discards) == mgr.stats.discarded_by_tev
    assert len(revalidations) == mgr.stats.ssd_writes_avoided
    assert mgr.stats.discarded_by_tev > 0


def test_victim_stage_events_match_stage_counters(index):
    mgr = make_manager(index, ssd_list_bytes=512 * KB)  # tight region forces victims
    stages = []
    mgr.events.subscribe(on_l2_victim=lambda e: stages.append(e.stage))
    for i in range(300):
        mgr.process_query(Query(i, (1 + i % 30, 31 + i % 25)))
    staged = (mgr.stats.evict_stage_replaceable + mgr.stats.evict_stage_size_match
              + mgr.stats.evict_stage_assemble + mgr.stats.evict_stage_fallback)
    counted = sum(1 for s in stages
                  if s in ("replaceable", "size-match", "assemble", "fallback"))
    assert staged > 0
    assert counted == staged


def test_observers_cannot_break_parity(index):
    """Subscribing observers must not change cache behaviour."""
    def replay(with_observer):
        mgr = make_manager(index, policy=Policy.CBSLRU)
        if with_observer:
            EventCounter(mgr.events)
        outcomes = []
        for i in range(150):
            out = mgr.process_query(Query(i % 40, (1 + i % 25, 26 + i % 20)))
            outcomes.append((out.situation, out.result_hit_level, out.response_us))
        return outcomes, mgr.occupancy()

    assert replay(False) == replay(True)


# -- the caches count without the bus ----------------------------------------

def test_an_unobserved_bus_builds_no_event_object(index, monkeypatch):
    built = []

    def counting(cls):
        def build(*args, **kwargs):
            built.append(cls(*args, **kwargs))
            return built[-1]
        return build

    for module in (result_cache, list_cache, replacement):
        for name in ("AdmitEvent", "EvictEvent", "FlushEvent", "L2VictimEvent"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counting(getattr(core_events, name)))

    def replay(mgr):
        for i in range(300):
            mgr.process_query(Query(i, (1 + i % 30, 31 + i % 25)))

    mgr = make_manager(index, ssd_list_bytes=512 * KB)
    assert mgr.events.observed is False
    replay(mgr)
    assert built == []
    stats = mgr.stats
    assert stats.ssd_result_writes and stats.ssd_list_writes
    assert stats.evict_stage_replaceable + stats.evict_stage_size_match > 0

    # The patch is live: the same run, observed, builds one object per
    # delivered event and counts the same.
    watched = make_manager(index, ssd_list_bytes=512 * KB)
    counter = EventCounter(watched.events)
    replay(watched)
    assert len(built) == sum(counter.counts.values()) > 0
    assert watched.stats == stats


#: The replacement counters of a 600-query run, recorded from the commit
#: whose caches still counted them through a bus subscriber.  Fallback is
#: the paper's worst case; no run this small reaches it.
REPLACEMENT_COUNTERS = (
    "ssd_result_writes", "ssd_list_writes", "ssd_writes_avoided",
    "discarded_by_tev", "evict_stage_replaceable", "evict_stage_size_match",
    "evict_stage_assemble", "evict_stage_fallback",
)
PARENT_RUNS = {
    "cblru": (Policy.CBLRU, 4, (76, 965, 78, 9, 3, 934, 6, 0),
              10505267.118875727),
    "cbslru": (Policy.CBSLRU, 8, (47, 635, 36, 9, 5, 597, 10, 0),
               6959459.186328826),
}


@pytest.fixture(scope="module")
def paper_stats():
    return build_corpus_stats(CorpusConfig.paper_scale(50_000, seed=42))


@pytest.mark.parametrize("observed", [False, True])
@pytest.mark.parametrize("run", sorted(PARENT_RUNS))
def test_replacement_counters_equal_the_parents(paper_stats, run, observed):
    policy, ssd_mb, counters, clock_us = PARENT_RUNS[run]
    index = InvertedIndex(paper_stats)
    cfg = CacheConfig.paper_split(1024 * KB, ssd_mb * 1024 * KB, policy=policy)
    mgr = CacheManager(cfg, build_hierarchy_for(cfg, index), index)
    if observed:
        EventCounter(mgr.events)
    log = make_log_for(600, seed=7)
    if policy is Policy.CBSLRU:
        mgr.warmup_static(log)
    for query in log:
        mgr.process_query(query)
    mgr.check_invariants()
    assert tuple(getattr(mgr.stats, n) for n in REPLACEMENT_COUNTERS) == counters
    assert mgr.clock.now_us == clock_us
