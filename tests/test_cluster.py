"""Sharded cluster: partitioning, fan-out, merging, accounting."""

import pytest

from repro.cluster.broker import Broker
from repro.cluster.shard import IndexShard, partition_corpus
from repro.core.config import CacheConfig, Policy
from repro.engine.corpus import CorpusConfig
from repro.engine.query import Query
from repro.engine.querylog import QueryLogConfig, generate_query_log

KB = 1024
BASE = CorpusConfig(num_docs=8000, vocab_size=120, seed=19)


def cache_cfg(policy=Policy.CBLRU):
    return CacheConfig(
        mem_result_bytes=100 * KB, mem_list_bytes=256 * KB,
        ssd_result_bytes=512 * KB, ssd_list_bytes=2048 * KB,
        policy=policy,
    )


@pytest.fixture(scope="module")
def log():
    return generate_query_log(QueryLogConfig(
        num_queries=300, distinct_queries=90, vocab_size=120, seed=3))


# -- partitioning ------------------------------------------------------------

def test_partition_counts_and_seeds():
    parts = partition_corpus(BASE, 4)
    assert len(parts) == 4
    for p in parts:
        assert p.config.num_docs == 2000
        assert p.config.vocab_size == BASE.vocab_size
    # Different shards hold different data (derived seeds).
    assert not (parts[0].doc_freqs == parts[1].doc_freqs).all()


def test_partition_validation():
    with pytest.raises(ValueError):
        partition_corpus(BASE, 0)


def test_single_shard_partition_keeps_whole_collection():
    parts = partition_corpus(BASE, 1)
    assert parts[0].config.num_docs == BASE.num_docs


# -- shard -------------------------------------------------------------------------

def test_shard_runs_queries():
    shard = IndexShard(0, partition_corpus(BASE, 2)[0], cache_cfg())
    out = shard.process_query(Query(0, (3, 7)))
    assert out.response_us > 0
    assert shard.stats.queries == 1
    assert "shard 0" in shard.describe()


def test_shard_validation():
    with pytest.raises(ValueError):
        IndexShard(-1, partition_corpus(BASE, 2)[0], cache_cfg())


def test_shard_observes_cache_activity_via_events(log):
    """Shards consume the event-hook seam instead of manager internals."""
    shard = IndexShard(0, partition_corpus(BASE, 2)[0], cache_cfg())
    for query in log.head(200):
        shard.process_query(query)
    assert shard.ssd_flush_count == (shard.stats.ssd_result_writes
                                     + shard.stats.ssd_list_writes)
    assert shard.ssd_flush_count > 0
    assert shard.cache_events.get("admit", "result") > 0
    assert shard.cache_events.get("evict", "list") > 0


# -- broker ------------------------------------------------------------------------

def test_broker_build_and_fanout(log):
    broker = Broker.build(BASE, num_shards=3, cache_config=cache_cfg())
    assert broker.num_shards == 3
    out = broker.process_query(log[0])
    assert len(out.shard_times_us) == 3
    # Fan-out latency = slowest shard + merge overhead.
    assert out.response_us == pytest.approx(
        max(out.shard_times_us) + broker.merge_overhead_us
    )


def test_broker_validation():
    with pytest.raises(ValueError):
        Broker([])
    shard = IndexShard(0, partition_corpus(BASE, 2)[0], cache_cfg())
    with pytest.raises(ValueError):
        Broker([shard, shard])  # duplicate ids
    with pytest.raises(ValueError):
        Broker([shard], merge_overhead_us=-1.0)


def test_broker_stats_accumulate(log):
    broker = Broker.build(BASE, num_shards=2, cache_config=cache_cfg())
    for q in log.head(50):
        broker.process_query(q)
    stats = broker.stats
    assert stats.queries == 50
    assert stats.mean_response_us > 0
    assert stats.throughput_qps > 0
    assert all(b > 0 for b in stats.per_shard_busy_us)
    assert stats.mean_straggler_us >= 0
    assert 0 <= broker.combined_hit_ratio() <= 1


def test_every_shard_sees_every_query(log):
    broker = Broker.build(BASE, num_shards=3, cache_config=cache_cfg())
    for q in log.head(40):
        broker.process_query(q)
    for shard in broker.shards:
        assert shard.stats.queries == 40


def test_repeat_queries_hit_all_shard_result_caches(log):
    broker = Broker.build(BASE, num_shards=2, cache_config=cache_cfg())
    q = log[0]
    broker.process_query(q)
    out = broker.process_query(q)
    assert out.shard_result_hits == 2


def test_sharding_reduces_per_query_latency(log):
    """Each shard scans 1/N of the postings, so fan-out latency drops
    with shard count (until merge overhead dominates)."""
    results = {}
    for n in (1, 4):
        broker = Broker.build(BASE, num_shards=n, cache_config=cache_cfg())
        for q in log.head(60):
            broker.process_query(q)
        results[n] = broker.stats.mean_response_us
    assert results[4] < results[1]


def test_broker_result_cache_hits_skip_fanout(log):
    broker = Broker.build(BASE, num_shards=2, cache_config=cache_cfg())
    broker.result_cache_entries = 64
    q = log[0]
    first = broker.process_query(q)
    assert first.shard_times_us  # fan-out happened
    second = broker.process_query(q)
    assert second.shard_times_us == ()  # answered at the broker
    assert second.response_us == pytest.approx(broker.broker_hit_us)
    assert broker.stats.broker_cache_hits == 1
    # Shards never saw the second query.
    for shard in broker.shards:
        assert shard.stats.queries == 1


def test_broker_result_cache_evicts_lru():
    broker = Broker.build(BASE, num_shards=1, cache_config=cache_cfg(),
                          )
    broker.result_cache_entries = 2
    qs = [Query(i, (1 + i,)) for i in range(3)]
    for q in qs:
        broker.process_query(q)
    broker.process_query(qs[0])  # evicted: full fan-out again
    assert broker.stats.broker_cache_hits == 0
    broker.process_query(qs[2])  # still cached
    assert broker.stats.broker_cache_hits == 1


def test_broker_cache_validation():
    shard = IndexShard(0, partition_corpus(BASE, 2)[0], cache_cfg())
    with pytest.raises(ValueError):
        Broker([shard], result_cache_entries=-1)
    with pytest.raises(ValueError):
        Broker([shard], broker_hit_us=-1.0)


def test_broker_cache_lowers_mean_response(log):
    plain = Broker.build(BASE, num_shards=2, cache_config=cache_cfg())
    cached = Broker.build(BASE, num_shards=2, cache_config=cache_cfg())
    cached.result_cache_entries = 256
    for q in log.head(120):
        plain.process_query(q)
        cached.process_query(q)
    assert cached.stats.mean_response_us < plain.stats.mean_response_us
    assert cached.stats.broker_cache_hits > 0


def test_cbslru_cluster_warmup(log):
    broker = Broker.build(BASE, num_shards=2,
                          cache_config=cache_cfg(Policy.CBSLRU))
    broker.warmup_static(log, analyze_queries=150)
    for shard in broker.shards:
        assert shard.manager.static_results or shard.manager.static_lists
    for q in log.head(30):
        broker.process_query(q)
    assert broker.total_ssd_erases() >= 0


# -- cluster-wide observability ----------------------------------------------

def test_broker_event_totals_equal_sum_of_shard_counts(log):
    broker = Broker.build(BASE, num_shards=3, cache_config=cache_cfg())
    for q in log.head(150):
        broker.process_query(q)
    total = broker.cache_event_totals()
    keys = set(total.counts)
    for shard in broker.shards:
        keys |= set(shard.cache_events.counts)
    assert keys, "no cache events observed"
    for key in keys:
        assert total.counts.get(key, 0) == sum(
            s.cache_events.counts.get(key, 0) for s in broker.shards
        )


def test_broker_aggregated_registry_sums_shard_registries(log):
    broker = Broker.build(BASE, num_shards=2, cache_config=cache_cfg(),
                          telemetry=True)
    for q in log.head(120):
        broker.process_query(q)
    merged = broker.aggregated_registry()
    queries = [inst for name, tags, inst in merged.items()
               if name == "queries_total"]
    assert sum(c.value for c in queries) == sum(
        s.stats.queries for s in broker.shards
    )
    per_shard = sum(
        inst.count
        for shard in broker.shards
        for name, tags, inst in shard.telemetry.registry.items()
        if name == "query_latency_us"
    )
    merged_hist = sum(inst.count for name, tags, inst in merged.items()
                      if name == "query_latency_us")
    assert merged_hist == per_shard > 0


def test_broker_without_telemetry_aggregates_empty_registry(log):
    broker = Broker.build(BASE, num_shards=2, cache_config=cache_cfg())
    for q in log.head(20):
        broker.process_query(q)
    assert len(broker.aggregated_registry()) == 0
    assert broker.shard_timelines() == {}


def _gauges(registry, name):
    """All (tags, value, merge_mode) for one gauge name."""
    return [(tags, inst.value, inst.merge_mode)
            for n, tags, inst in registry.items() if n == name]


def test_broker_gauge_merge_modes_across_shards(log):
    broker = Broker.build(BASE, num_shards=3, cache_config=cache_cfg(),
                          telemetry=True)
    for q in log:
        broker.process_query(q)
    for shard in broker.shards:
        shard.telemetry.collect()
    merged = broker.aggregated_registry()

    # Occupancy-style gauges sum across shards: cluster capacity is the
    # sum of per-shard capacity.
    for name in ("cache_write_buffer_entries", "flash_free_blocks"):
        per_shard = [v for s in broker.shards
                     for _, v, _ in _gauges(s.telemetry.registry, name)]
        assert per_shard, f"no {name} gauge on any shard"
        (tags, value, mode), = _gauges(merged, name)
        assert mode == "sum"
        assert value == sum(per_shard)

    # Ratio gauges must NOT sum — write amplification 1.1 on each of
    # three shards is 1.1, not 3.3.  Mode "last" keeps the final
    # shard's reading.
    wa = [v for s in broker.shards
          for _, v, _ in _gauges(s.telemetry.registry,
                                 "flash_write_amplification")]
    assert wa
    (_, merged_wa, mode), = _gauges(merged, "flash_write_amplification")
    assert mode == "last"
    assert merged_wa == wa[-1]
    assert merged_wa < sum(wa)

    # Wear projections take the worst shard (mode "max").
    worst = [v for s in broker.shards
             for _, v, _ in _gauges(s.telemetry.registry,
                                    "flash_wear_max_erases")]
    assert worst, "workload produced no SSD erases"
    (_, merged_wear, mode), = _gauges(merged, "flash_wear_max_erases")
    assert mode == "max"
    assert merged_wear == max(worst)


def test_broker_shard_timelines_and_skew(log):
    broker = Broker.build(BASE, num_shards=2, cache_config=cache_cfg(),
                          timeline_window_us=5_000.0)
    for q in log.head(200):
        broker.process_query(q)
    timelines = broker.shard_timelines()
    assert set(timelines) == {0, 1}
    for windows in timelines.values():
        assert len(windows) > 1
        # Every shard sees every query, and windowed deltas account
        # for each one exactly.
        assert sum(w["derived"].get("queries", 0) for w in windows) == 200
    # shard_timelines is stable across calls (finish is idempotent).
    again = broker.shard_timelines()
    assert {sid: len(w) for sid, w in again.items()} == \
        {sid: len(w) for sid, w in timelines.items()}
    # Document-partitioned twins see the same query stream: no skew.
    assert broker.detect_skew() == []
    # A generous tolerance never fires; a zero tolerance flags any
    # difference at all (shards hold different partitions).
    assert broker.detect_skew(rel_tol=10.0) == []


# -- the shared kernel-mode driver -----------------------------------------------

def test_one_shard_broker_and_run_open_loop_share_the_admission_path(log):
    """Broker.run_open_loop and run_open_loop are both `drive` plus a
    serve body, so on the same Poisson draws the admission ledger agrees
    (service times differ by the fan-out and merge; admission does not)."""
    from repro.workloads.openloop import PoissonArrivals, run_open_loop

    def pair():
        return (Broker.build(BASE, 1, cache_cfg(), shared_clock=True),
                Broker.build(BASE, 1, cache_cfg()).shards[0].manager)

    queries = list(log)[:40]
    # Light load: everything is admitted and completes.
    broker, manager = pair()
    a = broker.run_open_loop(queries, PoissonArrivals(5.0, seed=11),
                             concurrency=4, max_queue=8)
    b = run_open_loop(manager, queries, PoissonArrivals(5.0, seed=11),
                      concurrency=4, max_queue=8)
    assert (a.arrived, a.completed, a.rejected) == (40, 40, 0)
    assert (b.arrived, b.completed, b.rejected) == (40, 40, 0)
    # A burst far faster than any service time: every arrival lands
    # before the first completion, so the ledger is fixed by admission.
    broker, manager = pair()
    a = broker.run_open_loop(queries, PoissonArrivals(1e6, seed=11),
                             concurrency=2, max_queue=3)
    b = run_open_loop(manager, queries, PoissonArrivals(1e6, seed=11),
                      concurrency=2, max_queue=3)
    for r in (a, b):
        assert (r.arrived, r.completed, r.rejected, r.peak_inflight) == (
            40, 5, 35, 5)
    assert (a.arrival, a.offered_qps) == (b.arrival, b.offered_qps)
