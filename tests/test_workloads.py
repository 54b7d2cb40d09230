"""Workload drivers and the cost model."""

import pytest

from repro.core.config import CacheConfig, Policy
from repro.workloads.cost import (
    GB,
    PriceList,
    ServerConfig,
    cost_performance,
    server_cost_usd,
)
from repro.workloads.retrieval import (prepare_cached_manager, run_cached,
                                       run_uncached, sample_flash_series)
from repro.workloads.sweep import document_sweep, make_log_for, make_scaled_index

MB = 1024 * 1024


# -- cost model -------------------------------------------------------------

def test_paper_prices_are_default():
    prices = PriceList()
    assert prices.dram_per_gb == 14.5
    assert prices.ssd_per_gb == 1.9


def test_server_cost_arithmetic():
    cfg = ServerConfig("x", dram_bytes=GB, ssd_bytes=2 * GB, hdd_bytes=100 * GB)
    cost = server_cost_usd(cfg)
    assert cost == pytest.approx(14.5 + 2 * 1.9 + 100 * 0.08)


def test_paper_cost_claim_holds():
    """0.1 GB DRAM + 2 GB SSD is far cheaper than 1 GB DRAM (Fig. 18b)."""
    small_mem_big_ssd = server_cost_usd(
        ServerConfig("2LC", dram_bytes=int(0.1 * GB), ssd_bytes=2 * GB)
    )
    big_mem = server_cost_usd(ServerConfig("1LC", dram_bytes=GB))
    assert small_mem_big_ssd < big_mem / 2


def test_cost_performance():
    cfg = ServerConfig("x", dram_bytes=GB)
    assert cost_performance(cfg, throughput_qps=29.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        cost_performance(ServerConfig("z", dram_bytes=0), 10.0)


def test_validation():
    with pytest.raises(ValueError):
        PriceList(dram_per_gb=-1)
    with pytest.raises(ValueError):
        ServerConfig("x", dram_bytes=-1)


# -- retrieval drivers --------------------------------------------------------------

def test_uncached_hdd_vs_ssd(small_index, small_log):
    hdd = run_uncached(small_index, small_log, "hdd", max_queries=100)
    ssd = run_uncached(small_index, small_log, "ssd", max_queries=100)
    assert hdd.queries == ssd.queries == 100
    assert hdd.mean_response_ms > 0
    # Fig. 15: SSD index is faster, though not dramatically for small data.
    assert ssd.mean_response_ms < hdd.mean_response_ms


def test_cached_run_reports_stats(small_index, small_log):
    cfg = CacheConfig.paper_split(mem_bytes=1 * MB, ssd_bytes=8 * MB,
                                  policy=Policy.CBLRU)
    result = run_cached(small_index, small_log, cfg, max_queries=300)
    assert result.queries == 300
    assert result.stats is not None
    assert 0 <= result.stats.combined_hit_ratio <= 1
    assert result.throughput_qps > 0


def test_cached_warmup_excluded_from_stats(small_index, small_log):
    cfg = CacheConfig.paper_split(mem_bytes=1 * MB, ssd_bytes=8 * MB)
    result = run_cached(small_index, small_log, cfg,
                        warmup_queries=100, max_queries=300)
    assert result.queries == 200  # warmup not counted


@pytest.mark.parametrize("warmup", [300, 301, 10_000])
def test_warmup_covering_the_whole_log_measures_nothing(small_index, small_log,
                                                        warmup):
    """It used to report the warm-up itself as the measurement."""
    cfg = CacheConfig.paper_split(mem_bytes=1 * MB, ssd_bytes=2 * MB,
                                  policy=Policy.LRU)
    result = run_cached(small_index, small_log, cfg,
                        warmup_queries=warmup, max_queries=300)
    assert result.queries == 0
    assert result.mean_response_ms == 0.0
    assert result.throughput_qps == 0.0
    assert result.ssd_erases == 0
    assert result.stats.result_lookups == 0
    # The warm-up did run: its device traffic is in the busy breakdown.
    assert sum(result.busy_us.values()) > 0


def test_idle_gc_runs_in_both_halves_and_negative_warmup_is_refused(
        small_index, small_log):
    cfg = CacheConfig.paper_split(mem_bytes=1 * MB, ssd_bytes=2 * MB,
                                  policy=Policy.LRU)
    mgr = prepare_cached_manager(small_index, small_log, cfg)
    budgets = []
    mgr.ssd.idle_collect = lambda budget_us: budgets.append(budget_us)
    result = run_cached(small_index, small_log, cfg, warmup_queries=40,
                        max_queries=100, idle_gc_us=250.0, manager=mgr)
    assert result.queries == 60
    assert budgets == [250.0] * 100
    with pytest.raises(ValueError, match="warmup_queries"):
        run_cached(small_index, small_log, cfg, warmup_queries=-1)


def test_cached_beats_uncached(small_index, small_log):
    cfg = CacheConfig.paper_split(mem_bytes=2 * MB, ssd_bytes=16 * MB)
    cached = run_cached(small_index, small_log, cfg, max_queries=300)
    uncached = run_uncached(small_index, small_log, max_queries=300)
    assert cached.mean_response_ms < uncached.mean_response_ms


def test_flash_series_monotone(small_index, small_log):
    cfg = CacheConfig.paper_split(mem_bytes=1 * MB, ssd_bytes=8 * MB,
                                  policy=Policy.LRU)
    series = sample_flash_series(small_index, small_log, cfg, [100, 200, 300])
    assert [s["queries"] for s in series] == [100, 200, 300]
    erases = [s["erases"] for s in series]
    assert erases == sorted(erases)  # erase count never decreases


def test_flash_series_validation(small_index, small_log):
    cfg = CacheConfig.paper_split(mem_bytes=1 * MB, ssd_bytes=8 * MB)
    with pytest.raises(ValueError):
        sample_flash_series(small_index, small_log, cfg, [])
    with pytest.raises(ValueError):
        sample_flash_series(small_index, small_log, cfg, [200, 100])
    with pytest.raises(ValueError):
        sample_flash_series(small_index, small_log, cfg, [10**9])
    no_ssd = CacheConfig.paper_split(mem_bytes=1 * MB)
    with pytest.raises(ValueError):
        sample_flash_series(small_index, small_log, no_ssd, [10])


# -- sweep helpers ----------------------------------------------------------------

def test_scaled_index_memoised():
    a = make_scaled_index(100_000)
    b = make_scaled_index(100_000)
    assert a is b
    assert a.num_docs == 100_000


def test_make_log_defaults():
    log = make_log_for(400)
    assert len(log) == 400
    assert log.config.distinct_queries == 100


def test_document_sweep_runs_experiment():
    rows = document_sweep(
        [50_000, 100_000],
        lambda index, n: {"bytes": index.index_bytes},
    )
    assert len(rows) == 2
    assert rows[0]["num_docs"] == 50_000
    assert rows[1]["bytes"] > rows[0]["bytes"]
