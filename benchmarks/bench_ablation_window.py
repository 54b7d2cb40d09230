"""Ablation A2: the replace-first-region window W.

The paper fixes W = 5 and calls victim selection "worth being studied and
optimized in the future work".  This bench sweeps W to show the
sensitivity: tiny windows degenerate to plain LRU-end replacement, huge
windows let stale entries shield hot ones.
"""

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig, Policy
from repro.workloads.retrieval import run_cached
from repro.workloads.sweep import make_log_for

MB = 1024 * 1024

WINDOWS = [1, 3, 5, 10, 20]


def _run(index):
    log = make_log_for(4_000, distinct_queries=1_200, seed=22)
    rows = []
    for window in WINDOWS:
        cfg = CacheConfig.paper_split(
            16 * MB, 64 * MB, policy=Policy.CBLRU, replace_window=window
        )
        result = run_cached(index, log, cfg)
        rows.append({
            "W": window,
            "hit": result.stats.combined_hit_ratio,
            "ms": result.mean_response_ms,
            "erases": result.ssd_erases,
        })
    return rows


def test_ablation_replace_window(index_1m):
    rows = _run(index_1m)
    print()
    print(format_table(
        ["W", "hit ratio %", "resp ms", "erases"],
        [[r["W"], r["hit"] * 100, r["ms"], r["erases"]] for r in rows],
        title="Ablation A2 — replace-first-region window sweep (paper: W=5)",
    ))
    # The mechanism must function at every window size.
    for r in rows:
        assert 0 < r["hit"] < 1
        assert r["ms"] > 0
    # Sensitivity is bounded: W is a tuning knob, not a cliff.
    times = [r["ms"] for r in rows]
    assert max(times) < 2.0 * min(times)
