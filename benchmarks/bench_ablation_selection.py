"""Ablation A4: the TEV admission threshold and CBSLRU's static fraction.

Two knobs the paper sets by query-log analysis: the efficiency-value
threshold below which evicted lists are discarded instead of flushed
(Fig. 4), and the static/dynamic split of CBSLRU.  This bench sweeps
both: TEV trades SSD write traffic against list hit ratio; the static
fraction trades adaptivity against write-free hits.
"""

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig, Policy
from repro.workloads.retrieval import run_cached
from repro.workloads.sweep import make_log_for

MB = 1024 * 1024

TEVS = [0.0, 0.25, 0.5, 1.0, 2.0]
STATIC_FRACTIONS = [0.0, 0.25, 0.5, 0.75]


def _run_tev(index):
    log = make_log_for(4_000, distinct_queries=1_200, seed=24)
    rows = []
    for tev in TEVS:
        cfg = CacheConfig.paper_split(16 * MB, 64 * MB,
                                      policy=Policy.CBLRU, tev=tev)
        result = run_cached(index, log, cfg)
        stats = result.stats
        rows.append({
            "tev": tev,
            "list_hit": stats.list_hit_ratio,
            "writes": stats.ssd_list_writes,
            "discarded": stats.discarded_by_tev,
            "erases": result.ssd_erases,
        })
    return rows


def _run_static(index):
    log = make_log_for(4_000, distinct_queries=1_200, seed=24)
    rows = []
    for frac in STATIC_FRACTIONS:
        cfg = CacheConfig.paper_split(16 * MB, 64 * MB,
                                      policy=Policy.CBSLRU, static_fraction=frac)
        result = run_cached(index, log, cfg)
        rows.append({
            "frac": frac,
            "hit": result.stats.combined_hit_ratio,
            "ms": result.mean_response_ms,
            "erases": result.ssd_erases,
        })
    return rows


def test_ablation_tev_threshold(index_1m):
    rows = _run_tev(index_1m)
    print()
    print(format_table(
        ["TEV", "list hit %", "SSD list writes", "discarded", "erases"],
        [[r["tev"], r["list_hit"] * 100, r["writes"], r["discarded"],
          r["erases"]] for r in rows],
        title="Ablation A4a — TEV admission threshold (Fig. 4's cut line)",
    ))
    # Raising TEV monotonically discards more and writes less.
    discards = [r["discarded"] for r in rows]
    writes = [r["writes"] for r in rows]
    assert discards == sorted(discards)
    assert writes == sorted(writes, reverse=True)
    # Erases shrink as admission tightens.
    assert rows[-1]["erases"] <= rows[0]["erases"]


def test_ablation_static_fraction(index_1m):
    rows = _run_static(index_1m)
    print()
    print(format_table(
        ["static fraction", "hit ratio %", "resp ms", "erases"],
        [[r["frac"], r["hit"] * 100, r["ms"], r["erases"]] for r in rows],
        title="Ablation A4b — CBSLRU static fraction "
              "(0.0 degenerates to CBLRU)",
    ))
    # Some static partition must beat having none (the CBSLRU thesis)...
    best = min(rows, key=lambda r: r["ms"])
    assert best["frac"] > 0.0
    # ...and pinning reduces erases relative to fully-dynamic.
    assert min(r["erases"] for r in rows[1:]) <= rows[0]["erases"]
