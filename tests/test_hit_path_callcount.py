"""Exact frame-count pin for the result-hit path (noise-free).

The companion of ``test_miss_chain_callcount.py`` for the other half of
Table I: S1/S3 — a result served from memory or from SSD — is what the
two-level design exists to make common, and what every query pays before
it can miss.  Counted with ``sys.setprofile`` (``call`` events whose code
lives in ``repro/``; generated ``<string>`` code and the standard library
are not counted):

* one L1 result hit, one L2 result hit whose L1 victim is staged into the
  write buffer, one whose L1 victim re-validates its REPLACEABLE SSD copy
  (Section VI.C), each on a hand-built stack;
* 500 steady-state queries of a ``closed_fit``-shaped workload (CBSLRU,
  4 MB memory / 64 MB SSD, 300 distinct queries: every query is a result
  hit or a first-touch miss).

Every ceiling is 70 % of what the commit before the fixed-path pass made
(Python 3.11), and every simulated outcome — the ``QueryOutcome`` stream,
``CacheStats``, the clock — equals the values recorded from that commit:
same decisions, fewer frames.

The TTL differential replays a log with ``ttl_us > 0`` through a small
CBSLRU stack in which data expires everywhere it can (at the parent:
results 17 x in L1, 5 x in the write buffer, 102 x in L2, 476 static
refreshes; lists 112 x in L1, 262 x in L2, 645 x in the static
partition) — the inlined expiry compare is the branch the golden parity
fixtures barely visit.
"""

import copy
import hashlib
import pickle

from repro.core.config import CacheConfig, Policy
from repro.core.entries import EntryState
from repro.core.manager import CacheManager, QueryOutcome, build_hierarchy_for
from repro.core.stats import CacheStats, Situation
from repro.engine.corpus import CorpusConfig, build_corpus_stats
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.engine.query import Query
from repro.engine.querylog import QueryLogConfig, generate_query_log
from repro.workloads.sweep import QUERY_VOCAB
from tests.test_miss_chain_callcount import _count_repro_calls

KB = 1024
MB = 1024 * KB

#: Frames of one query at the parent commit, and the 70 % ceilings.
PARENT_L1_HIT_CALLS = 23
PARENT_L2_STAGE_CALLS = 39
PARENT_L2_REVALIDATE_CALLS = 42
#: Simulated response of those hits (a 20 KB DRAM read; an 11-page SSD read).
PARENT_L1_HIT_US = 2.2479999999995925
PARENT_L2_HIT_US = 98.17500000000018
L1_HIT_CEILING = PARENT_L1_HIT_CALLS * 70 // 100
L2_STAGE_CEILING = PARENT_L2_STAGE_CALLS * 70 // 100
L2_REVALIDATE_CEILING = PARENT_L2_REVALIDATE_CALLS * 70 // 100

WARM, COUNTED = 1000, 500
#: The parent made this many calls over the 500-query window.
PARENT_WINDOW_CALLS = 20_850
WINDOW_CEILING = PARENT_WINDOW_CALLS * 70 // 100

#: Recorded from the parent commit.
PARENT_WINDOW_STATS = {
    "queries": 500,
    "result_l1_hits": 202, "result_l2_hits": 268, "result_misses": 30,
    "list_l1_hits": 4, "list_l2_hits": 19,
    "list_partial_hits": 2, "list_misses": 64,
    "ssd_result_writes": 5, "ssd_list_writes": 58,
    "ssd_writes_avoided": 98, "discarded_by_tev": 7,
    "evict_stage_replaceable": 0, "evict_stage_size_match": 5,
    "evict_stage_assemble": 0, "evict_stage_fallback": 0,
    "expired_results": 0, "expired_lists": 0, "static_refreshes": 0,
}
PARENT_WINDOW_SITUATIONS = {"S1": 202, "S2": 0, "S3": 268, "S4": 0, "S5": 1,
                            "S6": 3, "S7": 14, "S8": 11, "S9": 1}
PARENT_WINDOW_CLOCK_US = 3354898.741013882
PARENT_WINDOW_OUTCOMES = (
    "5fd64ae9facdc1ec055a138052349fb17128a25c2bfbb708f7a068e43692ed40")

PARENT_TTL_STATS = {
    "queries": 1500,
    "result_l1_hits": 269, "result_l2_hits": 118, "result_misses": 1113,
    "list_l1_hits": 279, "list_l2_hits": 609,
    "list_partial_hits": 0, "list_misses": 1886,
    "ssd_result_writes": 104, "ssd_list_writes": 1212,
    "ssd_writes_avoided": 285, "discarded_by_tev": 0,
    "evict_stage_replaceable": 14, "evict_stage_size_match": 1051,
    "evict_stage_assemble": 0, "evict_stage_fallback": 0,
    "expired_results": 124, "expired_lists": 888, "static_refreshes": 1121,
}
PARENT_TTL_CLOCK_US = 19393429.156424668
PARENT_TTL_RESPONSE_US = 19360957.156424668
PARENT_TTL_OUTCOMES = (
    "687806feea666c55c0190cfb9331db7a6c6c380fdb9de65a61b1fdcd1fe67ff6")
#: (kind, level) -> evictions with reason "expired" over the TTL replay.
PARENT_TTL_EXPIRED_EVICTS = {("result", "l1"): 17, ("result", "l2"): 102,
                             ("list", "l1"): 112, ("list", "l2"): 131}

_COUNTERS = (
    "queries", "result_l1_hits", "result_l2_hits", "result_misses",
    "list_l1_hits", "list_l2_hits", "list_partial_hits", "list_misses",
    "ssd_result_writes", "ssd_list_writes", "ssd_writes_avoided",
    "discarded_by_tev", "evict_stage_replaceable", "evict_stage_size_match",
    "evict_stage_assemble", "evict_stage_fallback",
    "expired_results", "expired_lists", "static_refreshes",
)


def _counters(stats: CacheStats) -> dict:
    return {name: getattr(stats, name) for name in _COUNTERS}


def _outcome_digest(outcomes) -> str:
    """SHA-256 over the outcome stream; ``repr`` of a float is exact."""
    lines = (f"{o.query.query_id},{o.situation.name},{o.response_us!r},"
             f"{o.result_hit_level}" for o in outcomes)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _counted(manager, query):
    out = []
    calls = _count_repro_calls(lambda: out.append(manager.process_query(query)))
    return calls, out[0]


def test_single_hits_cost_at_most_70_percent_of_the_parents_frames():
    index = InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=80, seed=13))
    # L1 holds two results, an RB six: k0..k5 flush as one block, k6 waits
    # in the write buffer, k7 and k8 stay in memory.
    config = CacheConfig(mem_result_bytes=40 * KB, mem_list_bytes=512 * KB,
                         ssd_result_bytes=512 * KB, ssd_list_bytes=4 * MB,
                         policy=Policy.CBLRU)
    manager = CacheManager(config, build_hierarchy_for(config, index), index)
    k = [Query(query_id=i, terms=(3 + i,)) for i in range(9)]
    for query in k:
        assert manager.process_query(query).result_hit_level == 0
    cache = manager.result_cache
    assert sorted(cache.l1.keys()) == [k[7].key, k[8].key]
    assert k[6].key in cache.write_buffer and len(cache.l2_map) == 6

    # Prime both devices (counters are resolved at a device's first read):
    # k8 from memory, k0 from SSD — its L1 victim k7 joins the buffer.
    assert manager.process_query(k[8]).result_hit_level == 1
    assert manager.process_query(k[0]).result_hit_level == 2
    assert cache.l2_map[k[0].key].state is EntryState.REPLACEABLE

    calls, out = _counted(manager, k[8])
    assert (out.situation, out.result_hit_level) == (Situation.S1, 1)
    assert out.response_us == PARENT_L1_HIT_US
    assert calls <= L1_HIT_CEILING, calls

    # k1 comes back from SSD and evicts k0, the LRU entry, whose
    # REPLACEABLE SSD copy is re-validated in place.
    avoided = manager.stats.ssd_writes_avoided
    calls, out = _counted(manager, k[1])
    assert (out.situation, out.result_hit_level) == (Situation.S3, 2)
    assert out.response_us == PARENT_L2_HIT_US
    assert manager.stats.ssd_writes_avoided == avoided + 1
    assert cache.l2_map[k[0].key].state is EntryState.NORMAL
    assert calls <= L2_REVALIDATE_CEILING, calls

    # k2 comes back and evicts k8, which has no SSD copy: staged.
    staged = len(cache.write_buffer)
    calls, out = _counted(manager, k[2])
    assert (out.situation, out.result_hit_level) == (Situation.S3, 2)
    assert out.response_us == PARENT_L2_HIT_US
    assert k[8].key in cache.write_buffer
    assert len(cache.write_buffer) == staged + 1
    assert calls <= L2_STAGE_CEILING, calls
    manager.check_invariants()


def test_steady_state_window_call_count_and_outcome_are_pinned():
    stats = build_corpus_stats(CorpusConfig.paper_scale(200_000, seed=42))
    log = generate_query_log(QueryLogConfig(
        num_queries=WARM + COUNTED, distinct_queries=300,
        singleton_fraction=0.0, vocab_size=QUERY_VOCAB, seed=7))
    queries = list(log)
    config = CacheConfig.paper_split(4 * MB, 64 * MB, policy=Policy.CBSLRU)
    index = InvertedIndex(stats)
    manager = CacheManager(
        config, build_hierarchy_for(config, index), index,
        QueryProcessor(index, top_k=config.top_k, seed=7))
    manager.warmup_static(log)
    for query in queries[:WARM]:
        manager.process_query(query)
    manager.stats.reset()

    outcomes = []

    def window():
        for query in queries[WARM:]:
            outcomes.append(manager.process_query(query))

    calls = _count_repro_calls(window)

    got = manager.stats
    assert _counters(got) == PARENT_WINDOW_STATS
    assert ({s.name: n for s, n in got.situation_counts.items()}
            == PARENT_WINDOW_SITUATIONS)
    assert manager.clock.now_us == PARENT_WINDOW_CLOCK_US
    assert _outcome_digest(outcomes) == PARENT_WINDOW_OUTCOMES
    assert manager.ssd.erase_count == 0
    manager.check_invariants()
    assert calls <= WINDOW_CEILING, (
        f"{calls} Python calls inside repro/ for {COUNTED} steady-state "
        f"result hits ({calls / COUNTED:.1f}/query); ceiling {WINDOW_CEILING}"
    )


def _ttl_replay(observed: bool):
    index = InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=80, seed=13))
    config = CacheConfig(mem_result_bytes=200 * KB, mem_list_bytes=256 * KB,
                         ssd_result_bytes=1 * MB, ssd_list_bytes=4 * MB,
                         policy=Policy.CBSLRU, ttl_us=250_000.0)
    log = generate_query_log(QueryLogConfig(
        num_queries=1500, distinct_queries=120, vocab_size=80,
        singleton_fraction=0.1, seed=5))
    manager = CacheManager(config, build_hierarchy_for(config, index), index)
    manager.warmup_static(log)
    expired: dict = {}
    if observed:
        def on_evict(event):
            if event.reason == "expired":
                where = (event.kind, event.level)
                expired[where] = expired.get(where, 0) + 1
        manager.events.subscribe(on_evict=on_evict)
    outcomes = [manager.process_query(query) for query in log]
    manager.check_invariants()
    return manager, outcomes, expired


def test_ttl_replay_equals_the_parents_outcome_stream_and_stats():
    manager, outcomes, _ = _ttl_replay(observed=False)
    assert _counters(manager.stats) == PARENT_TTL_STATS
    assert manager.clock.now_us == PARENT_TTL_CLOCK_US
    assert manager.stats.total_response_us == PARENT_TTL_RESPONSE_US
    assert _outcome_digest(outcomes) == PARENT_TTL_OUTCOMES

    # Watching changes nothing, and says where the data expired.
    watched, watched_outcomes, expired = _ttl_replay(observed=True)
    assert watched.stats == manager.stats
    assert _outcome_digest(watched_outcomes) == PARENT_TTL_OUTCOMES
    assert expired == PARENT_TTL_EXPIRED_EVICTS


def test_stats_and_outcomes_survive_pickle_and_deepcopy():
    stats = CacheStats()
    stats.record_query(Situation.S3, 98.175)
    stats.record_query(Situation.S1, 2.248)
    stats.record_query(Situation.S3, 98.175)
    outcome = QueryOutcome(Query(query_id=4, terms=(9, 2)), Situation.S3,
                           98.175, 2)
    for clone in (pickle.loads(pickle.dumps(stats)), copy.deepcopy(stats)):
        assert clone == stats and clone is not stats
        assert type(clone.situation_counts) is dict
        assert list(clone.situation_counts) == list(Situation)
        assert clone.situation_counts[Situation.S3] == 2
        assert clone.situation_time_us[Situation.S3] == 2 * 98.175
        clone.record_query(Situation.S1, 1.0)
        assert stats.situation_counts[Situation.S1] == 1
    for clone in (pickle.loads(pickle.dumps(outcome)), copy.deepcopy(outcome)):
        assert clone == outcome
        assert clone.situation is Situation.S3
        assert (clone.query, clone.response_us, clone.result_hit_level) == (
            outcome.query, 98.175, 2)
    assert QueryOutcome._fields == ("query", "situation", "response_us",
                                    "result_hit_level")
