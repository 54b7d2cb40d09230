"""Extension E2: the dynamic scenario (Section IV.B).

The paper confines its evaluation to a static index and sketches the
dynamic case: give each cached datum a TTL; expired data is re-read from
the HDD.  This bench quantifies the freshness/performance trade the
sketch implies: sweeping the TTL from "everything is instantly stale" to
"static" shows response time and SSD write traffic falling as staleness
tolerance grows.
"""

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig, Policy
from repro.workloads.retrieval import run_cached
from repro.workloads.sweep import make_log_for, make_scaled_index

MB = 1024 * 1024

#: TTLs in seconds of simulated time (the full run spans ~100 s).
TTLS_S = [0.5, 2.0, 10.0, 50.0, 0.0]  # 0 = static scenario


def _run(index):
    log = make_log_for(4_000, distinct_queries=1_200, seed=32)
    rows = []
    for ttl_s in TTLS_S:
        cfg = CacheConfig.paper_split(
            16 * MB, 64 * MB, policy=Policy.CBLRU, ttl_us=ttl_s * 1e6
        )
        result = run_cached(index, log, cfg)
        stats = result.stats
        rows.append({
            "ttl_s": ttl_s,
            "hit": stats.combined_hit_ratio,
            "ms": result.mean_response_ms,
            "expired": stats.expired_results + stats.expired_lists,
            "erases": result.ssd_erases,
        })
    return rows


def test_ext_dynamic_ttl(index_1m):
    rows = _run(index_1m)
    print()
    print(format_table(
        ["TTL (s)", "hit %", "resp ms", "expirations", "erases"],
        [["static" if r["ttl_s"] == 0 else r["ttl_s"],
          r["hit"] * 100, r["ms"], r["expired"], r["erases"]] for r in rows],
        title="Extension E2 — dynamic scenario: freshness vs performance",
    ))

    static = rows[-1]
    tight = rows[0]
    assert static["expired"] == 0
    assert tight["expired"] > 0
    # Staleness tolerance buys hit ratio and response time monotonically
    # (modulo noise): the static scenario is the best case.
    assert static["hit"] >= tight["hit"]
    assert static["ms"] <= tight["ms"]
    hits = [r["hit"] for r in rows]
    assert hits == sorted(hits), "hit ratio should grow with TTL"
