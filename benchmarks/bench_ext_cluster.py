"""Extension E5: the hybrid cache at cluster scale.

The paper's cost argument is per-server; a large engine runs hundreds of
document-partitioned servers behind a broker.  This bench measures (a)
the fan-out scaling curve and (b) whether the per-server policy ordering
(LRU vs CBSLRU) survives aggregation — including the straggler effect:
the broker waits for the *slowest* shard, so cache-miss tail latency is
amplified by fan-out.
"""

from repro.analysis.tables import format_table
from repro.cluster.broker import Broker
from repro.core.config import CacheConfig, Policy
from repro.engine.corpus import CorpusConfig
from repro.workloads.sweep import make_log_for

MB = 1024 * 1024

CORPUS = CorpusConfig(num_docs=1_200_000, vocab_size=50_000,
                      avg_doc_len=300, seed=42)
SHARD_COUNTS = [1, 2, 4, 8]


def _cache_cfg(policy):
    return CacheConfig.paper_split(8 * MB, 32 * MB, policy=policy)


def _run():
    log = make_log_for(1_200, distinct_queries=400, seed=33)
    scaling = []
    for n in SHARD_COUNTS:
        broker = Broker.build(CORPUS, num_shards=n,
                              cache_config=_cache_cfg(Policy.CBLRU))
        for q in log:
            broker.process_query(q)
        scaling.append({
            "shards": n,
            "ms": broker.stats.mean_response_us / 1000,
            "straggler_ms": broker.stats.mean_straggler_us / 1000,
            "hit": broker.combined_hit_ratio(),
            "erases": broker.total_ssd_erases(),
        })

    policies = {}
    for policy in (Policy.LRU, Policy.CBSLRU):
        broker = Broker.build(CORPUS, num_shards=4,
                              cache_config=_cache_cfg(policy))
        if policy is Policy.CBSLRU:
            broker.warmup_static(log, analyze_queries=600)
        for q in log:
            broker.process_query(q)
        policies[policy.value] = broker
    return scaling, policies


def test_ext_cluster():
    scaling, policies = _run()
    print()
    print(format_table(
        ["shards", "resp ms", "straggler ms", "hit %", "total erases"],
        [[r["shards"], r["ms"], r["straggler_ms"], r["hit"] * 100,
          r["erases"]] for r in scaling],
        title="Extension E5a — fan-out scaling (CBLRU per shard)",
    ))
    rows = []
    for name, broker in policies.items():
        rows.append([
            name, broker.stats.mean_response_us / 1000,
            broker.stats.throughput_qps,
            broker.combined_hit_ratio() * 100,
            broker.total_ssd_erases(),
        ])
    print(format_table(
        ["policy", "resp ms", "qps", "hit %", "total erases"],
        rows,
        title="Extension E5b — per-shard policy at cluster level (4 shards)",
    ))

    # Scaling: more shards = less data per server = faster fan-out.
    times = [r["ms"] for r in scaling]
    assert times[-1] < times[0]
    # Straggler cost exists whenever there is fan-out.
    assert scaling[-1]["straggler_ms"] > 0
    assert scaling[0]["straggler_ms"] == 0  # no fan-out at 1 shard
    # The paper's per-server ordering survives aggregation.
    lru = policies["lru"]
    cbs = policies["cbslru"]
    assert cbs.stats.mean_response_us < lru.stats.mean_response_us
    assert cbs.total_ssd_erases() <= lru.total_ssd_erases()
