"""Ablation A6: index compression (the intro's other lever).

The paper's introduction lists index compression next to caching as a
standard throughput technique.  With d-gap + varbyte lists, every tier
moves less data: HDD reads shrink, more lists fit in both cache levels,
and the SSD absorbs fewer bytes per flush.  This bench measures the
interaction: compression and the hybrid cache compound.
"""

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig, Policy
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.workloads.retrieval import run_cached, run_uncached
from repro.workloads.sweep import make_log_for

MB = 1024 * 1024


def _run():
    corpus = CorpusConfig.paper_scale(1_000_000)
    raw = InvertedIndex(corpus)
    comp = InvertedIndex(corpus, compressed=True)
    log = make_log_for(2_500, distinct_queries=800, seed=34)
    cfg = CacheConfig.paper_split(16 * MB, 64 * MB, policy=Policy.CBLRU)

    rows = []
    for label, index in (("raw (8 B/posting)", raw), ("compressed", comp)):
        uncached = run_uncached(index, log, max_queries=400)
        cached = run_cached(index, log, cfg)
        stats = cached.stats
        rows.append({
            "label": label,
            "index_mb": index.index_bytes / MB,
            "uncached_ms": uncached.mean_response_ms,
            "cached_ms": cached.mean_response_ms,
            "hit": stats.combined_hit_ratio,
            "erases": cached.ssd_erases,
        })
    return rows


def test_ablation_compression():
    rows = _run()
    print()
    print(format_table(
        ["index", "size MB", "uncached ms", "cached ms", "hit %", "erases"],
        [[r["label"], r["index_mb"], r["uncached_ms"], r["cached_ms"],
          r["hit"] * 100, r["erases"]] for r in rows],
        title="Ablation A6 — d-gap+varbyte compression under the hybrid cache",
    ))
    raw, comp = rows
    # Compression shrinks the index substantially...
    assert comp["index_mb"] < raw["index_mb"] * 0.7
    # ...speeds up both uncached and cached retrieval...
    assert comp["uncached_ms"] < raw["uncached_ms"]
    assert comp["cached_ms"] < raw["cached_ms"]
    # ...and improves the cache's effectiveness (more lists fit).
    assert comp["hit"] >= raw["hit"] - 0.01
    # Erases need not drop: smaller entries mean *more* lists are admitted
    # through the same SSD region; bound the growth instead.
    assert comp["erases"] <= raw["erases"] * 1.5
