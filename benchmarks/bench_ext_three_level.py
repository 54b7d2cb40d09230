"""Extension E1: three-level caching (results + lists + intersections).

The paper's conclusion proposes caching *intersections* as a third level
[19] and conjectures it "will further improve the performance".  This
bench tests that conjecture: same workload, two-level vs three-level
manager, on a query stream where term pairs recur (as they do in real
logs — people repeat popular word combinations).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig, Policy
from repro.core.intersections import ThreeLevelCacheManager
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.query import Query
from repro.engine.querylog import QueryLog, QueryLogConfig

MB = 1024 * 1024


def _pair_heavy_log(num_queries=4_000, hot_pairs=60, vocab=10_000, seed=31):
    """Distinct queries sharing hot term pairs ("new york times", "new
    york weather", ...): the access pattern intersection caching exists
    for.  Each query is one hot pair plus 1-2 fresh tail terms, so the
    *queries* rarely repeat (little result-cache shielding) while the
    *pairs* recur constantly."""
    rng = np.random.default_rng(seed)
    pairs = [tuple(sorted(rng.choice(np.arange(25, vocab // 4), size=2,
                                     replace=False).tolist()))
             for _ in range(hot_pairs)]
    pair_probs = (1.0 / np.arange(1, hot_pairs + 1)) ** 0.9
    pair_probs /= pair_probs.sum()
    pool: list[Query] = []
    for qid in range(num_queries):
        a, b = pairs[int(rng.choice(hot_pairs, p=pair_probs))]
        extras = rng.choice(vocab, size=int(rng.integers(1, 3)), replace=False)
        terms = tuple({int(a), int(b), *(int(e) for e in extras)})
        pool.append(Query(query_id=qid, terms=terms))
    cfg = QueryLogConfig(num_queries=num_queries, distinct_queries=num_queries,
                         vocab_size=vocab, seed=seed)
    return QueryLog(cfg, pool, np.arange(num_queries, dtype=np.int64))


def _run(index):
    log = _pair_heavy_log()
    cfg = CacheConfig.paper_split(16 * MB, 64 * MB, policy=Policy.CBLRU)

    two = CacheManager(cfg, build_hierarchy_for(cfg, index), index)
    three = ThreeLevelCacheManager(
        cfg, build_hierarchy_for(cfg, index), index,
        intersection_bytes=8 * MB,
    )
    for query in log:
        two.process_query(query)
    for query in log:
        three.process_query(query)
    return two, three


def test_ext_three_level(index_1m):
    two, three = _run(index_1m)
    rows = []
    for label, mgr in (("two-level", two), ("three-level", three)):
        stats = mgr.stats
        rows.append([
            label,
            stats.combined_hit_ratio * 100,
            stats.mean_response_us / 1000,
            stats.throughput_qps,
            mgr.ssd.erase_count,
        ])
    inter = three.intersections
    print()
    print(format_table(
        ["manager", "hit %", "resp ms", "qps", "erases"],
        rows,
        title="Extension E1 — two-level vs three-level (intersections [19])",
    ))
    print(f"intersection cache: {len(inter)} entries, "
          f"{inter.used_bytes / MB:.1f} MB, hits={inter.hits}, "
          f"misses={inter.misses}")

    # The paper's conjecture: the third level helps.
    assert inter.hits > 0
    assert (three.stats.mean_response_us <= two.stats.mean_response_us)
    # The intersection level also sheds SSD traffic (pairs served from
    # memory never touch the lower tiers).
    assert three.ssd.erase_count <= two.ssd.erase_count * 1.05

    speedup = two.stats.mean_response_us / three.stats.mean_response_us
    print(f"three-level speedup: {speedup:.3f}x")
