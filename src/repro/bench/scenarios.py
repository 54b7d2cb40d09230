"""Benchmark scenario and suite definitions.

A scenario is one deterministic cached-retrieval run (index scale, query
log, cache sizing, policy); a suite is the named set the harness runs.
``smoke`` is sized for CI (tens of seconds); ``full`` covers the three
policies at paper scale for local before/after comparisons.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["BenchScenario", "SUITES"]


@dataclass(frozen=True)
class BenchScenario:
    """One deterministic benchmark run.

    ``arrival="closed"`` (default) is the seed's synchronous replay.
    ``"poisson"``/``"diurnal"`` run open-loop on the discrete-event
    kernel: ``rate_qps`` offered (peak for diurnal), ``concurrency``
    in flight, ``max_queue`` waiting, overflow shed.  Open-loop runs
    warm up closed-loop over ``warmup_queries`` first so the measured
    phase starts from a populated cache.
    """

    name: str
    policy: str  # "lru" | "cblru" | "cbslru"
    docs: int
    queries: int
    mem_mb: int
    ssd_mb: int
    seed: int = 7
    ttl_ms: float = 0.0
    arrival: str = "closed"  # "closed" | "poisson" | "diurnal"
    rate_qps: float = 0.0
    concurrency: int = 1
    max_queue: int = 64
    warmup_queries: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def inputs(self) -> tuple:
        """``(index, log, cache_config)``: what every consumer of a
        scenario (the harness, ``repro profile``) builds first."""
        from repro.core.config import CacheConfig, Policy
        from repro.workloads.sweep import make_log_for, make_scaled_index

        mb = 1024 * 1024
        cfg = CacheConfig.paper_split(
            self.mem_mb * mb, self.ssd_mb * mb,
            policy=Policy(self.policy), ttl_us=self.ttl_ms * 1000.0)
        return (make_scaled_index(self.docs),
                make_log_for(self.queries, seed=self.seed), cfg)


#: CI-sized: every policy touches the SSD enough to exercise admission,
#: replacement and GC, but the whole suite stays fast.
SMOKE = (
    BenchScenario("lru-smoke", "lru", docs=200_000, queries=1_500,
                  mem_mb=4, ssd_mb=16),
    BenchScenario("cblru-smoke", "cblru", docs=200_000, queries=1_500,
                  mem_mb=4, ssd_mb=16),
    BenchScenario("cbslru-smoke", "cbslru", docs=200_000, queries=1_500,
                  mem_mb=4, ssd_mb=16),
)

#: Paper-scale: the Fig. 14/17 configuration, one run per policy.
FULL = (
    BenchScenario("lru-full", "lru", docs=1_000_000, queries=4_000,
                  mem_mb=16, ssd_mb=64),
    BenchScenario("cblru-full", "cblru", docs=1_000_000, queries=4_000,
                  mem_mb=16, ssd_mb=64),
    BenchScenario("cbslru-full", "cbslru", docs=1_000_000, queries=4_000,
                  mem_mb=16, ssd_mb=64),
    BenchScenario("cbslru-dynamic", "cbslru", docs=1_000_000, queries=4_000,
                  mem_mb=16, ssd_mb=64, ttl_ms=50.0),
)

#: Open-loop saturation ladder at smoke scale.  The warm single-server
#: capacity there is ~65-70 q/s (HDD-bound), so the rungs sit clearly
#: below the knee (~60%), at the CI operating point (~80%), and past it
#: (~130%, where shed queries and queue buildup are the *expected*
#: outcome).  The diurnal rung sweeps through the knee twice per cycle.
SATURATION = (
    BenchScenario("sat-below-knee", "cbslru", docs=200_000, queries=1_200,
                  mem_mb=4, ssd_mb=16, arrival="poisson", rate_qps=40.0,
                  concurrency=8, max_queue=32, warmup_queries=400),
    BenchScenario("sat-at-knee", "cbslru", docs=200_000, queries=1_200,
                  mem_mb=4, ssd_mb=16, arrival="poisson", rate_qps=55.0,
                  concurrency=8, max_queue=32, warmup_queries=400),
    BenchScenario("sat-past-knee", "cbslru", docs=200_000, queries=1_200,
                  mem_mb=4, ssd_mb=16, arrival="poisson", rate_qps=90.0,
                  concurrency=8, max_queue=32, warmup_queries=400),
    BenchScenario("sat-diurnal", "cbslru", docs=200_000, queries=1_200,
                  mem_mb=4, ssd_mb=16, arrival="diurnal", rate_qps=70.0,
                  concurrency=8, max_queue=32, warmup_queries=400),
)

SUITES: dict[str, tuple[BenchScenario, ...]] = {
    "smoke": SMOKE,
    "full": FULL,
    "saturation": SATURATION,
}
