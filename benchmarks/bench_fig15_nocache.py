"""Fig. 15: retrieval without any cache — index on HDD vs SSD.

The paper: response time rises (and throughput falls) sharply with the
document count, and the SSD helps only modestly at these data sizes
("the performance improvement is not obvious as expected").
"""

from repro.analysis.tables import format_table
from repro.workloads.retrieval import run_uncached
from repro.workloads.sweep import make_log_for, make_scaled_index

from conftest import DOC_SWEEP


def _run():
    log = make_log_for(400, distinct_queries=400, seed=15)  # no repetition
    rows = []
    for num_docs in DOC_SWEEP:
        index = make_scaled_index(num_docs)
        hdd = run_uncached(index, log, "hdd")
        ssd = run_uncached(index, log, "ssd")
        rows.append({
            "num_docs": num_docs,
            "hdd_ms": hdd.mean_response_ms, "hdd_qps": hdd.throughput_qps,
            "ssd_ms": ssd.mean_response_ms, "ssd_qps": ssd.throughput_qps,
        })
    return rows


def test_fig15_nocache():
    rows = _run()
    print()
    print(format_table(
        ["docs (M)", "HDD ms", "SSD ms", "HDD qps", "SSD qps"],
        [[r["num_docs"] / 1e6, r["hdd_ms"], r["ssd_ms"],
          r["hdd_qps"], r["ssd_qps"]] for r in rows],
        title="Fig. 15 — no cache: response time & throughput, HDD vs SSD index",
    ))

    # Response time grows with document count on both media.
    assert rows[-1]["hdd_ms"] > rows[0]["hdd_ms"]
    assert rows[-1]["ssd_ms"] > rows[0]["ssd_ms"]
    # Throughput falls correspondingly.
    assert rows[-1]["hdd_qps"] < rows[0]["hdd_qps"]
    # SSD is faster but "not obvious": a modest factor, not an order of
    # magnitude (reads here are large and partly sequential).
    for r in rows:
        assert r["ssd_ms"] < r["hdd_ms"]
        assert r["ssd_ms"] > r["hdd_ms"] / 6
