"""Fig. 17: two-level cache performance under LRU / CBLRU / CBSLRU.

The paper reports, versus LRU: response time -35.27 % (CBLRU) and
-41.05 % (CBSLRU); throughput +55.29 % and +70.47 %.
"""

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig, Policy
from repro.workloads.retrieval import run_cached
from repro.workloads.sweep import make_log_for, make_scaled_index

from conftest import DOC_SWEEP

MB = 1024 * 1024


def _run():
    log = make_log_for(3_000, distinct_queries=900, seed=17)
    rows = []
    for num_docs in DOC_SWEEP:
        index = make_scaled_index(num_docs)
        row = {"num_docs": num_docs}
        for policy in (Policy.LRU, Policy.CBLRU, Policy.CBSLRU):
            cfg = CacheConfig.paper_split(16 * MB, 64 * MB, policy=policy)
            result = run_cached(index, log, cfg, static_analyze_queries=1500)
            row[f"{policy.value}_ms"] = result.mean_response_ms
            row[f"{policy.value}_qps"] = result.throughput_qps
        rows.append(row)
    return rows


def test_fig17_policies():
    rows = _run()
    print()
    print(format_table(
        ["docs (M)", "LRU ms", "CBLRU ms", "CBSLRU ms",
         "LRU qps", "CBLRU qps", "CBSLRU qps"],
        [[r["num_docs"] / 1e6, r["lru_ms"], r["cblru_ms"], r["cbslru_ms"],
          r["lru_qps"], r["cblru_qps"], r["cbslru_qps"]] for r in rows],
        title="Fig. 17 — 2LC response time & throughput by policy",
    ))

    mean = lambda k: sum(r[k] for r in rows) / len(rows)
    dt_cblru = (1 - mean("cblru_ms") / mean("lru_ms")) * 100
    dt_cbslru = (1 - mean("cbslru_ms") / mean("lru_ms")) * 100
    dq_cblru = (mean("cblru_qps") / mean("lru_qps") - 1) * 100
    dq_cbslru = (mean("cbslru_qps") / mean("lru_qps") - 1) * 100
    print(f"response time vs LRU: CBLRU -{dt_cblru:.1f}% (paper -35.27%), "
          f"CBSLRU -{dt_cbslru:.1f}% (paper -41.05%)")
    print(f"throughput vs LRU:  CBLRU +{dq_cblru:.1f}% (paper +55.29%), "
          f"CBSLRU +{dq_cbslru:.1f}% (paper +70.47%)")

    # Shape assertions: ordering + a substantial margin.
    for r in rows:
        assert r["cblru_ms"] < r["lru_ms"]
        assert r["cbslru_ms"] < r["cblru_ms"] * 1.05
    assert dt_cblru > 15.0
    assert dt_cbslru > dt_cblru - 2.0
    assert dq_cblru > 15.0
