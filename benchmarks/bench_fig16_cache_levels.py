"""Fig. 16: one-level vs two-level caches.

(a) a result-only memory cache with the index on HDD vs SSD — moving the
index to SSD helps a little; (b) adding the SSD cache tier (2LC) and the
inverted-list cache (RI) helps much more.  Paper proportions: the SSD RC
is 10x the memory RC; the SSD IC is ~100x the memory IC (expressed here
through `paper_split`'s budget split).
"""

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig
from repro.workloads.retrieval import run_cached
from repro.workloads.sweep import make_log_for, make_scaled_index

from conftest import DOC_SWEEP

MB = 1024 * 1024


def _run():
    # The distinct-query pool must exceed the memory result cache (~400
    # entries at 8 MB), or every configuration degenerates to pure S1.
    # Warm-cache measurement: the first 1500 queries are excluded.
    log = make_log_for(4_000, distinct_queries=1_200, seed=16)
    mem_rc = 8 * MB
    kw = dict(warmup_queries=1_500)
    rows = []
    for num_docs in DOC_SWEEP:
        index = make_scaled_index(num_docs)
        # (a) one-level result cache, index on HDD vs SSD.
        one_r = CacheConfig(mem_result_bytes=mem_rc, mem_list_bytes=0,
                            ssd_result_bytes=0, ssd_list_bytes=0)
        a_hdd = run_cached(index, log, one_r, index_on="hdd",
                           label="1LC(R)-HDD", **kw)
        a_ssd = run_cached(index, log, one_r, index_on="ssd",
                           label="1LC(R)-SSD", **kw)
        # (b) add the SSD tier (RC = 10x memory RC), then add the
        # inverted-list cache on top (IC = 100x memory IC), the paper's
        # additive Section VII.B configurations.
        two_r = CacheConfig(mem_result_bytes=mem_rc, mem_list_bytes=0,
                            ssd_result_bytes=10 * mem_rc, ssd_list_bytes=0)
        two_ri = CacheConfig(mem_result_bytes=mem_rc, mem_list_bytes=8 * MB,
                             ssd_result_bytes=10 * mem_rc,
                             ssd_list_bytes=100 * 8 * MB, tev=0.25)
        b_2r = run_cached(index, log, two_r, label="2LC(R)-HDD", **kw)
        b_2ri = run_cached(index, log, two_ri, label="2LC(RI)-HDD", **kw)
        rows.append({
            "num_docs": num_docs,
            "1LC(R)-HDD": a_hdd.mean_response_ms,
            "1LC(R)-SSD": a_ssd.mean_response_ms,
            "2LC(R)-HDD": b_2r.mean_response_ms,
            "2LC(RI)-HDD": b_2ri.mean_response_ms,
        })
    return rows


def test_fig16_cache_levels():
    rows = _run()
    cols = ["1LC(R)-HDD", "1LC(R)-SSD", "2LC(R)-HDD", "2LC(RI)-HDD"]
    print()
    print(format_table(
        ["docs (M)"] + [f"{c} ms" for c in cols],
        [[r["num_docs"] / 1e6] + [r[c] for c in cols] for r in rows],
        title="Fig. 16 — response time: 1LC vs 2LC, R vs RI",
    ))

    for r in rows:
        # (a) SSD-resident index helps, but only somewhat.
        assert r["1LC(R)-SSD"] < r["1LC(R)-HDD"]
        # (b) the two-level RI cache is the clear winner.
        assert r["2LC(RI)-HDD"] < r["1LC(R)-HDD"]
        assert r["2LC(RI)-HDD"] < r["2LC(R)-HDD"]
    mean = lambda c: sum(r[c] for r in rows) / len(rows)
    print(f"mean speedup of 2LC(RI) over 1LC(R): "
          f"{mean('1LC(R)-HDD') / mean('2LC(RI)-HDD'):.2f}x")
