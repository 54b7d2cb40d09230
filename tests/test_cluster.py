"""Sharded cluster: partitioning, fan-out, merging, accounting."""

import pytest

from repro.cluster import broker as broker_module
from repro.cluster.broker import Broker
from repro.cluster.shard import IndexShard, partition_corpus
from repro.core.config import CacheConfig, Policy
from repro.engine.corpus import CorpusConfig
from repro.engine.query import Query
from repro.engine.querylog import QueryLogConfig, generate_query_log
from repro.obs import Telemetry
from tests._recording_observer import count_built_events

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


def _flushes(registry, kind):
    c = registry.get("cache_flushes_total", kind=kind)
    return c.value if c is not None else 0


def test_shard_observes_cache_activity_via_events(log):
    """A shard's telemetry sees the cache life cycle through the bus."""
    shard = IndexShard(0, partition_corpus(BASE, 2)[0], cache_cfg(),
                       telemetry=Telemetry(trace=False))
    for query in log.head(200):
        shard.process_query(query)
    registry = shard.telemetry.registry
    assert _flushes(registry, "result") == shard.stats.ssd_result_writes > 0
    assert _flushes(registry, "list") == shard.stats.ssd_list_writes > 0
    totals = {}
    for name, tags, inst in registry.items():
        if name in ("cache_admits_total", "cache_evicts_total"):
            key = (name, tags["kind"])
            totals[key] = totals.get(key, 0) + inst.value
    assert totals[("cache_admits_total", "result")] > 0
    assert totals[("cache_evicts_total", "list")] > 0


def test_a_shard_without_telemetry_builds_no_event_object(log, monkeypatch):
    built = count_built_events(monkeypatch)
    shard = IndexShard(0, partition_corpus(BASE, 2)[0], cache_cfg())
    broker = Broker.build(BASE, num_shards=2, cache_config=cache_cfg())
    for query in log.head(150):
        shard.process_query(query)
        broker.process_query(query)
    assert built == []
    for s in (shard, *broker.shards):
        assert s.manager.events.observed is False
        assert s.stats.ssd_result_writes + s.stats.ssd_list_writes > 0

    # With telemetry, the shard's own observer is bound as each emitter
    # (and the patch is live: the same replay now builds events).
    watched = Broker.build(BASE, num_shards=2, cache_config=cache_cfg(),
                           telemetry=True)
    for s in watched.shards:
        observer = s.manager.events.observer
        assert observer.registry is s.telemetry.registry
        for hook in ("admit", "evict", "flush", "l2_victim"):
            assert (getattr(s.manager.events, hook)
                    == getattr(observer, "on_" + hook))
    for query in log.head(150):
        watched.process_query(query)
    assert built


# -- broker ------------------------------------------------------------------------

def test_broker_build_and_fanout(log):
    broker = Broker.build(BASE, num_shards=3, cache_config=cache_cfg())
    assert broker.num_shards == 3
    out = broker.process_query(log[0])
    assert len(out.shard_times_us) == 3
    # Fan-out latency = slowest shard + merge overhead.
    assert out.response_us == pytest.approx(
        max(out.shard_times_us) + broker_module.MERGE_OVERHEAD_US
    )


def test_broker_validation():
    with pytest.raises(ValueError):
        Broker([])
    shard = IndexShard(0, partition_corpus(BASE, 2)[0], cache_cfg())
    with pytest.raises(ValueError):
        Broker([shard, shard])  # duplicate ids


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


def test_cbslru_cluster_warmup(log):
    broker = Broker.build(BASE, num_shards=2,
                          cache_config=cache_cfg(Policy.CBSLRU))
    broker.warmup_static(log, analyze_queries=150)
    for shard in broker.shards:
        assert shard.manager.result_cache.static or shard.manager.list_cache.static
    for q in log.head(30):
        broker.process_query(q)
    assert broker.total_ssd_erases() >= 0


# -- cluster-wide observability ----------------------------------------------

def test_broker_aggregated_flushes_equal_the_shards_ssd_writes(log):
    broker = Broker.build(BASE, num_shards=3, cache_config=cache_cfg(),
                          telemetry=True)
    for q in log.head(150):
        broker.process_query(q)
    merged = broker.aggregated_registry()
    results = sum(s.stats.ssd_result_writes for s in broker.shards)
    lists = sum(s.stats.ssd_list_writes for s in broker.shards)
    assert _flushes(merged, "result") == results > 0
    assert _flushes(merged, "list") == lists > 0


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
