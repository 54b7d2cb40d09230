"""Extension E4: open-loop load curves.

The paper reports closed-loop throughput (queries/s of serial execution).
A production server faces an arrival process; what the better cache
policy actually buys is a *later saturation knee*.  This bench feeds each
policy's measured service times into the FIFO queueing model and prints
mean/p99 latency across offered loads.
"""

from repro.analysis.tables import format_table
from repro.core.config import CacheConfig, Policy
from repro.workloads.openloop import collect_service_times, load_sweep

MB = 1024 * 1024

#: offered load as a fraction of the LRU configuration's capacity
LOAD_POINTS = [0.2, 0.5, 0.8, 1.1]


def _run(index, log):
    curves = {}
    base_capacity = None
    for policy in (Policy.LRU, Policy.CBSLRU):
        cfg = CacheConfig.paper_split(16 * MB, 64 * MB, policy=policy)
        service = collect_service_times(
            index, log, cfg, warmup_queries=1_000, static_analyze_queries=3_000
        )
        if base_capacity is None:
            base_capacity = 1e6 / service.mean()  # LRU's capacity in qps
        rates = [base_capacity * f for f in LOAD_POINTS]
        curves[policy.value] = load_sweep(service, rates, seed=3)
    return curves, base_capacity


def test_ext_open_loop(index_1m, standard_log):
    curves, base_capacity = _run(index_1m, standard_log)
    rows = []
    for i, frac in enumerate(LOAD_POINTS):
        lru = curves["lru"][i]
        cbs = curves["cbslru"][i]
        rows.append([
            f"{frac:.0%} of LRU capacity",
            lru.mean_response_us / 1000, lru.p99_us / 1000,
            "yes" if lru.saturated else "no",
            cbs.mean_response_us / 1000, cbs.p99_us / 1000,
            "yes" if cbs.saturated else "no",
        ])
    print()
    print(format_table(
        ["offered load", "LRU ms", "LRU p99", "LRU sat?",
         "CBSLRU ms", "CBSLRU p99", "CBSLRU sat?"],
        rows,
        title=f"Extension E4 — open-loop latency "
              f"(LRU capacity ~{base_capacity:.0f} qps)",
    ))

    # Beyond LRU's capacity, LRU melts while CBSLRU still serves.
    over = LOAD_POINTS.index(1.1)
    assert curves["lru"][over].saturated
    assert not curves["cbslru"][over].saturated
    # At every load, CBSLRU responds faster.
    for i in range(len(LOAD_POINTS)):
        assert (curves["cbslru"][i].mean_response_us
                < curves["lru"][i].mean_response_us)
