"""Fig. 19: simulated flash behaviour under the three policies.

(a) block erasure count vs query count — the paper reports -59.92 %
(CBLRU) and -71.52 % (CBSLRU) versus LRU at the end of the run;
(b) mean flash access time — -13.20 % and -43.83 %, with the curve
settling as reads start to dominate.
"""

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig, Policy
from repro.workloads.retrieval import sample_flash_series

MB = 1024 * 1024

# The paper samples 10k..100k queries; same axis shape at 1/10 scale.
SAMPLE_POINTS = [1_000 * i for i in range(1, 11)]


def _run(index, log):
    series = {}
    for policy in (Policy.LRU, Policy.CBLRU, Policy.CBSLRU):
        cfg = CacheConfig.paper_split(16 * MB, 64 * MB, policy=policy)
        series[policy.value] = sample_flash_series(
            index, log, cfg, SAMPLE_POINTS, static_analyze_queries=5_000
        )
    return series


def test_fig19_flash_behaviour(index_1m, long_log):
    series = _run(index_1m, long_log)

    rows = []
    for i, point in enumerate(SAMPLE_POINTS):
        rows.append([
            point,
            series["lru"][i]["erases"],
            series["cblru"][i]["erases"],
            series["cbslru"][i]["erases"],
        ])
    print()
    print(format_table(
        ["queries", "LRU erases", "CBLRU erases", "CBSLRU erases"],
        rows,
        title="Fig. 19(a) — block erasure count "
              "(paper: CBLRU -59.92%, CBSLRU -71.52% vs LRU)",
    ))

    rows = []
    for i, point in enumerate(SAMPLE_POINTS):
        rows.append([
            point,
            series["lru"][i]["mean_access_us"] / 1000.0,
            series["cblru"][i]["mean_access_us"] / 1000.0,
            series["cbslru"][i]["mean_access_us"] / 1000.0,
        ])
    print(format_table(
        ["queries", "LRU ms", "CBLRU ms", "CBSLRU ms"],
        rows,
        title="Fig. 19(b) — flash mean access time "
              "(paper: CBLRU -13.20%, CBSLRU -43.83% vs LRU)",
    ))

    final = {k: v[-1] for k, v in series.items()}
    e_cblru = (1 - final["cblru"]["erases"] / max(1, final["lru"]["erases"])) * 100
    e_cbslru = (1 - final["cbslru"]["erases"] / max(1, final["lru"]["erases"])) * 100
    t_cblru = (1 - final["cblru"]["mean_access_us"]
               / final["lru"]["mean_access_us"]) * 100
    t_cbslru = (1 - final["cbslru"]["mean_access_us"]
                / final["lru"]["mean_access_us"]) * 100
    print(f"erase reduction vs LRU: CBLRU -{e_cblru:.1f}% (paper -59.92%), "
          f"CBSLRU -{e_cbslru:.1f}% (paper -71.52%)")
    print(f"access-time reduction: CBLRU -{t_cblru:.1f}% (paper -13.20%), "
          f"CBSLRU -{t_cbslru:.1f}% (paper -43.83%)")

    # Shape: erases grow monotonically; cost-based policies erase far less.
    for key in ("lru", "cblru", "cbslru"):
        erases = [s["erases"] for s in series[key]]
        assert erases == sorted(erases)
    assert final["lru"]["erases"] > 0
    assert e_cblru > 40.0
    assert e_cbslru >= e_cblru - 5.0
    # Access time: cost-based policies are faster inside the SSD too.
    assert t_cblru > 0
    assert t_cbslru > 0
    # Fig. 19(b)'s settling: LRU's later samples do not keep rising
    # steeply (reads start to dominate writes).
    lru_times = [s["mean_access_us"] for s in series["lru"]]
    assert lru_times[-1] < lru_times[4] * 1.5
