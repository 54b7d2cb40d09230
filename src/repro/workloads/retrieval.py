"""Closed-loop retrieval runs.

Every figure in the paper's evaluation is some projection of these two
loops:

* :func:`run_uncached` — queries hit the index store directly (Fig. 15's
  HDD-vs-SSD comparison, the "no cache" baseline);
* :func:`run_cached` — queries flow through a :class:`CacheManager`
  (Figs. 14, 16, 17); :func:`sample_flash_series` additionally samples
  the SSD's erase count and mean access time as the run progresses
  (Fig. 19).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import CacheConfig, Policy
from repro.core.intersections import ThreeLevelCacheManager
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.core.stats import CacheStats
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.engine.querylog import QueryLog

__all__ = ["RunResult", "run_uncached", "run_cached", "sample_flash_series",
           "prepare_cached_manager"]


@dataclass
class RunResult:
    """Outcome of one retrieval run."""

    label: str
    queries: int
    mean_response_ms: float
    throughput_qps: float
    stats: CacheStats | None = None
    ssd_erases: int = 0
    ssd_mean_access_us: float = 0.0
    busy_us: dict = field(default_factory=dict)

    def row(self) -> str:
        """One printable table row."""
        return (
            f"{self.label:<28s} {self.queries:>7d} "
            f"{self.mean_response_ms:>10.2f} {self.throughput_qps:>10.1f}"
        )


def run_uncached(
    index: InvertedIndex,
    log: QueryLog,
    index_on: str = "hdd",
    max_queries: int | None = None,
    seed: int = 1234,
) -> RunResult:
    """Replay a query log with no cache at all (Fig. 15)."""
    cache_cfg = CacheConfig(
        mem_result_bytes=0, mem_list_bytes=0,
        ssd_result_bytes=0, ssd_list_bytes=0,
    )
    hierarchy = build_hierarchy_for(cache_cfg, index, index_on=index_on)
    processor = QueryProcessor(index, seed=seed)
    clock = hierarchy.clock
    store = hierarchy.index_store
    n = 0
    queries = log.head(max_queries) if max_queries is not None else list(log)
    for query in queries:
        plan = processor.plan(query)
        for demand in plan.demands:
            for lba, nbytes in index.layout.chunk_reads(
                demand.term_id, demand.needed_bytes
            ):
                store.read(lba, nbytes)
        clock.advance(processor.cpu_time_us(plan))
        n += 1
    total_us = clock.now_us
    return RunResult(
        label=f"nocache-{index_on}",
        queries=n,
        mean_response_ms=(total_us / n / 1000.0) if n else 0.0,
        throughput_qps=(n / (total_us / 1e6)) if total_us > 0 else 0.0,
        busy_us=hierarchy.busy_breakdown_us(),
    )


def prepare_cached_manager(
    index: InvertedIndex,
    log: QueryLog,
    cache_config: CacheConfig,
    index_on: str = "hdd",
    static_analyze_queries: int | None = None,
    seed: int = 1234,
    telemetry=None,
    three_level: bool = False,
) -> CacheManager:
    """The one build recipe — hierarchy, processor (same ``seed``, so
    query plans reproduce), manager (``three_level`` adds the
    intersection cache), CBSLRU static warmup — stopping just before
    serving.  Pass the result to ``run_cached(..., manager=...)`` or
    :func:`~repro.workloads.openloop.run_open_loop`."""
    hierarchy = build_hierarchy_for(cache_config, index, index_on=index_on)
    processor = QueryProcessor(index, top_k=cache_config.top_k, seed=seed)
    cls = ThreeLevelCacheManager if three_level else CacheManager
    mgr = cls(cache_config, hierarchy, index, processor, telemetry=telemetry)
    if cache_config.policy is Policy.CBSLRU and cache_config.uses_ssd:
        mgr.warmup_static(log, analyze_queries=static_analyze_queries)
    return mgr


def run_cached(
    index: InvertedIndex,
    log: QueryLog,
    cache_config: CacheConfig,
    index_on: str = "hdd",
    warmup_queries: int = 0,
    max_queries: int | None = None,
    static_analyze_queries: int | None = None,
    idle_gc_us: float = 0.0,
    seed: int = 1234,
    label: str | None = None,
    telemetry=None,
    manager: CacheManager | None = None,
) -> RunResult:
    """Replay a query log through the two-level cache.

    ``warmup_queries`` leading queries populate the caches but are
    excluded from the reported statistics (their device traffic still
    ages the SSD, as it would in reality).  For CBSLRU the static
    partition is provisioned first by analysing the log prefix.
    ``idle_gc_us`` grants the SSD that much background-GC budget of
    host think time after every query.  ``telemetry`` attaches a
    :class:`~repro.obs.Telemetry` bundle to the manager for spans and
    per-stage latency histograms.  ``manager`` replays through an
    already-built (and already statically-warmed) manager instead —
    the bench harness uses this to time serving separately from setup;
    ``cache_config`` must be the config the manager was built with.
    """
    mgr = manager if manager is not None else prepare_cached_manager(
        index, log, cache_config, index_on=index_on,
        static_analyze_queries=static_analyze_queries, seed=seed,
        telemetry=telemetry)
    queries = log.head(max_queries) if max_queries is not None else list(log)
    if warmup_queries < 0:
        raise ValueError("warmup_queries cannot be negative")
    ssd = mgr.ssd
    # Decided once, not per query: idle GC is off unless asked for.
    idle_gc = idle_gc_us > 0 and ssd is not None

    def replay(batch) -> None:
        process = mgr.process_query
        for query in batch:
            process(query)
            if idle_gc:
                ssd.idle_collect(idle_gc_us)

    # A warm-up covering the whole log leaves zero measured queries.
    replay(queries[:warmup_queries])
    mgr.stats.reset()
    erase_base = ssd.erase_count if ssd else 0
    replay(queries[warmup_queries:])
    s = mgr.stats
    return RunResult(
        label=label or f"{cache_config.policy.value}-{index_on}",
        queries=s.queries,
        mean_response_ms=s.mean_response_us / 1000.0,
        throughput_qps=s.throughput_qps,
        stats=s,
        ssd_erases=(mgr.ssd.erase_count - erase_base) if mgr.ssd else 0,
        ssd_mean_access_us=mgr.ssd.mean_access_time_us if mgr.ssd else 0.0,
        busy_us=mgr.hierarchy.busy_breakdown_us(),
    )


def sample_flash_series(
    index: InvertedIndex,
    log: QueryLog,
    cache_config: CacheConfig,
    sample_points: list[int],
    index_on: str = "hdd",
    static_analyze_queries: int | None = None,
    seed: int = 1234,
) -> list[dict]:
    """Fig. 19's series: (queries, erase count, flash mean access time).

    ``sample_points`` are cumulative query counts at which to sample; the
    run processes max(sample_points) queries total.
    """
    if not sample_points:
        raise ValueError("sample_points must be non-empty")
    if sorted(sample_points) != list(sample_points):
        raise ValueError("sample_points must be increasing")
    mgr = prepare_cached_manager(
        index, log, cache_config, index_on=index_on,
        static_analyze_queries=static_analyze_queries, seed=seed)
    if mgr.ssd is None:
        raise ValueError("flash series needs an SSD tier")
    # Fig. 19 counts flash activity during the measured workload only.
    erase_base = mgr.ssd.erase_count
    mgr.ssd.reset_counters()

    out: list[dict] = []
    done = 0
    total = sample_points[-1]
    queries = log.head(total)
    if len(queries) < total:
        raise ValueError(f"log has only {len(queries)} queries, need {total}")
    for point in sample_points:
        while done < point:
            mgr.process_query(queries[done])
            done += 1
        out.append(
            {
                "queries": done,
                "erases": mgr.ssd.erase_count - erase_base,
                "mean_access_us": mgr.ssd.mean_access_time_us,
            }
        )
    return out
