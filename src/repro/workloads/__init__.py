"""Experiment drivers: retrieval runs, parameter sweeps and the cost model.

These are the harnesses the benchmarks call: closed-loop query replay with
and without caches (Figs. 14-17, 19), and the dollars-per-performance
arithmetic of Fig. 18.
"""

from repro.workloads.retrieval import (
    RunResult,
    run_cached,
    run_uncached,
    sample_flash_series,
)
from repro.workloads.cost import (
    PriceList,
    ServerConfig,
    cost_performance,
    server_cost_usd,
)
from repro.workloads.sweep import make_scaled_index, make_log_for

__all__ = [
    "RunResult",
    "run_cached",
    "run_uncached",
    "sample_flash_series",
    "PriceList",
    "ServerConfig",
    "cost_performance",
    "server_cost_usd",
    "make_scaled_index",
    "make_log_for",
]
