"""Ablation A3: inclusive vs exclusive vs hybrid caching schemes.

Section IV.A argues for the hybrid scheme: inclusive wastes SSD capacity
and write bandwidth duplicating what memory holds; exclusive deletes on
every promotion, multiplying erasures.  This bench quantifies both
penalties.
"""

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig, Policy, Scheme
from repro.workloads.retrieval import run_cached
from repro.workloads.sweep import make_log_for

MB = 1024 * 1024


def _run(index):
    log = make_log_for(4_000, distinct_queries=1_200, seed=23)
    rows = []
    for scheme in (Scheme.HYBRID, Scheme.INCLUSIVE, Scheme.EXCLUSIVE):
        cfg = CacheConfig.paper_split(
            16 * MB, 64 * MB, policy=Policy.CBLRU, scheme=scheme
        )
        result = run_cached(index, log, cfg)
        stats = result.stats
        rows.append({
            "scheme": scheme.value,
            "hit": stats.combined_hit_ratio,
            "ms": result.mean_response_ms,
            "writes": stats.ssd_result_writes + stats.ssd_list_writes,
            "erases": result.ssd_erases,
        })
    return rows


def test_ablation_caching_scheme(index_1m):
    rows = _run(index_1m)
    print()
    print(format_table(
        ["scheme", "hit ratio %", "resp ms", "SSD writes", "erases"],
        [[r["scheme"], r["hit"] * 100, r["ms"], r["writes"], r["erases"]]
         for r in rows],
        title="Ablation A3 — caching scheme (Section IV.A argues for hybrid)",
    ))
    by = {r["scheme"]: r for r in rows}
    # Inclusive duplicates every insert: strictly more SSD writes.
    assert by["inclusive"]["writes"] > by["hybrid"]["writes"]
    # Exclusive re-promotes and re-writes: at least as many writes as hybrid.
    assert by["exclusive"]["writes"] >= by["hybrid"]["writes"]
    # Hybrid is the fastest or within noise of the fastest.
    best_ms = min(r["ms"] for r in rows)
    assert by["hybrid"]["ms"] <= best_ms * 1.10
