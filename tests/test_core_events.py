"""The cache event-hook seam: the observer slot, the observed gate, and
the replacement counters the caches keep without any observer."""

import pytest

from repro.core.config import CacheConfig, Policy, Scheme
from repro.core.events import AdmitEvent, CacheEvents
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig, build_corpus_stats
from repro.engine.index import InvertedIndex
from repro.engine.query import Query
from repro.workloads.sweep import make_log_for
from tests._recording_observer import Recorder, count_built_events

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


# -- the observer slot --------------------------------------------------------

def test_observe_and_detach():
    events = CacheEvents()
    recorder = Recorder()
    events.observe(recorder)
    event = AdmitEvent(kind="result", key=(1,), level="l1", nbytes=10)
    events.admit(event)
    assert recorder.events == [("admit", event)]
    events.observe(None)
    events.admit(event)
    assert len(recorder.events) == 1


def test_observed_follows_the_slot_and_the_hooks_are_the_emitters():
    events = CacheEvents()
    assert events.observed is False and events.observer is None
    recorder = Recorder()
    events.observe(recorder)
    assert events.observed is True and events.observer is recorder
    # The observer's hooks are the emitters themselves: no dispatch frame.
    for hook in ("admit", "evict", "flush", "l2_victim"):
        assert getattr(events, hook) == getattr(recorder, "on_" + hook)
    # One slot: a second observer is refused until the first detaches.
    with pytest.raises(RuntimeError, match="already has an observer"):
        events.observe(Recorder())
    assert events.observer is recorder
    events.observe(None)
    assert events.observed is False and events.observer is None


def test_an_observers_exception_propagates_out_of_the_emit_site(index):
    class Broken(Recorder):
        def on_flush(self, event):
            raise RuntimeError("observer bug")

    mgr = make_manager(index)
    mgr.events.observe(Broken())
    with pytest.raises(RuntimeError, match="observer bug"):
        for i in range(250):
            mgr.process_query(Query(i % 60, (1 + i % 25, 26 + i % 20)))


# -- the manager emits a faithful event stream -------------------------------

def test_flush_events_match_ssd_write_counters(index):
    mgr = make_manager(index)
    recorder = Recorder()
    mgr.events.observe(recorder)
    for i in range(250):
        mgr.process_query(Query(i % 60, (1 + i % 25, 26 + i % 20)))
    assert mgr.stats.ssd_result_writes > 0
    assert mgr.stats.ssd_list_writes > 0
    assert recorder.count("flush", "result") == mgr.stats.ssd_result_writes
    assert recorder.count("flush", "list") == mgr.stats.ssd_list_writes


def test_tev_discards_and_revalidations_flow_through_events(index):
    mgr = make_manager(index, tev=2.0)
    recorder = Recorder()
    mgr.events.observe(recorder)
    for i in range(250):
        mgr.process_query(Query(i % 60, (1 + i % 25, 26 + i % 20)))
    tev_discards = [e for e in recorder.of("evict") if e.reason == "tev"]
    revalidations = [e for e in recorder.of("admit")
                     if e.reason == "revalidate"]
    assert len(tev_discards) == mgr.stats.discarded_by_tev
    assert len(revalidations) == mgr.stats.ssd_writes_avoided
    assert mgr.stats.discarded_by_tev > 0


def test_victim_stage_events_match_stage_counters(index):
    mgr = make_manager(index, ssd_list_bytes=512 * KB)  # tight region forces victims
    recorder = Recorder()
    mgr.events.observe(recorder)
    for i in range(300):
        mgr.process_query(Query(i, (1 + i % 30, 31 + i % 25)))
    stages = [e.stage for e in recorder.of("l2_victim")]
    staged = (mgr.stats.evict_stage_replaceable + mgr.stats.evict_stage_size_match
              + mgr.stats.evict_stage_assemble + mgr.stats.evict_stage_fallback)
    counted = sum(1 for s in stages
                  if s in ("replaceable", "size-match", "assemble", "fallback"))
    assert staged > 0
    assert counted == staged


def test_observers_cannot_break_parity(index):
    """An observer must not change cache behaviour."""
    def replay(with_observer):
        mgr = make_manager(index, policy=Policy.CBSLRU)
        if with_observer:
            mgr.events.observe(Recorder())
        outcomes = []
        for i in range(150):
            out = mgr.process_query(Query(i % 40, (1 + i % 25, 26 + i % 20)))
            outcomes.append((out.situation, out.result_hit_level, out.response_us))
        return outcomes, mgr.occupancy()

    assert replay(False) == replay(True)


# -- the caches count without the bus ----------------------------------------

def test_an_unobserved_bus_builds_no_event_object(index, monkeypatch):
    built = count_built_events(monkeypatch)

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
    recorder = Recorder()
    watched.events.observe(recorder)
    replay(watched)
    assert len(built) == len(recorder.events) > 0
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
        mgr.events.observe(Recorder())
    log = make_log_for(600, seed=7)
    if policy is Policy.CBSLRU:
        mgr.warmup_static(log)
    for query in log:
        mgr.process_query(query)
    mgr.check_invariants()
    assert tuple(getattr(mgr.stats, n) for n in REPLACEMENT_COUNTERS) == counters
    assert mgr.clock.now_us == clock_us
