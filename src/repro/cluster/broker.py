"""The broker: query fan-out and top-k merging across shards.

A query is broadcast to every shard in parallel; the broker's response
time is the *slowest* shard's (fan-out max) plus a fixed merge cost.
Each shard replies with its local top-k and the broker keeps the global
best k — document partitioning makes this merge exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.shard import IndexShard
from repro.core.config import CacheConfig, Policy
from repro.engine.corpus import CorpusConfig
from repro.engine.query import Query
from repro.engine.querylog import QueryLog

__all__ = ["ClusterOutcome", "BrokerStats", "Broker"]


@dataclass(frozen=True)
class ClusterOutcome:
    """One query's cluster-level result."""

    query: Query
    #: fan-out latency: the slowest shard plus the broker merge
    response_us: float
    #: per-shard service times, indexed by shard id
    shard_times_us: tuple[float, ...]
    #: how many shards answered from their result caches (L1 or L2)
    shard_result_hits: int


@dataclass
class BrokerStats:
    queries: int = 0
    total_response_us: float = 0.0
    #: sum over queries of (max shard time - mean shard time): the price
    #: of waiting for stragglers
    straggler_us: float = 0.0
    #: queries answered from the broker's own merged-result cache
    broker_cache_hits: int = 0
    per_shard_busy_us: list[float] = field(default_factory=list)

    @property
    def mean_response_us(self) -> float:
        return self.total_response_us / self.queries if self.queries else 0.0

    @property
    def throughput_qps(self) -> float:
        if self.total_response_us <= 0:
            return 0.0
        return self.queries / (self.total_response_us / 1e6)

    @property
    def mean_straggler_us(self) -> float:
        return self.straggler_us / self.queries if self.queries else 0.0


class Broker:
    """Fans queries out to shards and accounts fan-out latency.

    ``result_cache_entries`` > 0 enables a broker-level cache of merged
    results (the natural cluster extension of result caching [16][17]):
    a broker hit answers in ``broker_hit_us`` without touching any shard.
    """

    def __init__(
        self,
        shards: list[IndexShard],
        merge_overhead_us: float = 200.0,
        result_cache_entries: int = 0,
        broker_hit_us: float = 50.0,
    ) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        ids = [s.shard_id for s in shards]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate shard ids")
        if merge_overhead_us < 0:
            raise ValueError("merge_overhead_us cannot be negative")
        if result_cache_entries < 0:
            raise ValueError("result_cache_entries cannot be negative")
        if broker_hit_us < 0:
            raise ValueError("broker_hit_us cannot be negative")
        self.shards = shards
        self.merge_overhead_us = merge_overhead_us
        self.result_cache_entries = result_cache_entries
        self.broker_hit_us = broker_hit_us
        from repro.core.lru import LruList

        self._result_cache: LruList[tuple[int, ...], bool] = LruList()
        self.stats = BrokerStats(per_shard_busy_us=[0.0] * len(shards))

    @classmethod
    def build(
        cls,
        corpus: CorpusConfig,
        num_shards: int,
        cache_config: CacheConfig,
        merge_overhead_us: float = 200.0,
        telemetry: bool = False,
        timeline_window_us: float | None = None,
        shared_clock: bool = False,
    ) -> "Broker":
        """Partition ``corpus`` and assemble a cluster of cached shards.

        ``telemetry=True`` gives every shard its own
        :class:`~repro.obs.Telemetry` (registry only, no spans — span
        volume across a whole cluster would swamp memory); aggregate the
        registries with :meth:`aggregated_registry`.
        ``timeline_window_us`` additionally attaches a windowed recorder
        per shard (implies telemetry), enabling :meth:`shard_timelines`
        and :meth:`detect_skew`.  ``shared_clock=True`` puts every shard
        on one simulated timeline (device names gain ``#<shard>``
        suffixes) — required for :meth:`run_open_loop`'s concurrent
        fan-out, incompatible with the sequential :meth:`process_query`
        accounting (which sums per-shard times instead of overlapping
        them).
        """
        from repro.cluster.shard import partition_corpus

        clock = None
        if shared_clock:
            from repro.sim.clock import VirtualClock

            clock = VirtualClock()
        partitions = partition_corpus(corpus, num_shards)
        shards = []
        for i, stats in enumerate(partitions):
            tel = None
            if telemetry or timeline_window_us is not None:
                from repro.obs import Telemetry

                tel = Telemetry(trace=False)
                if timeline_window_us is not None:
                    tel.attach_timeline(window_us=timeline_window_us)
            shards.append(IndexShard(i, stats, cache_config, telemetry=tel,
                                     clock=clock))
        return cls(shards, merge_overhead_us=merge_overhead_us)

    def warmup_static(self, log: QueryLog, analyze_queries: int | None = None) -> None:
        for shard in self.shards:
            shard.warmup_static(log, analyze_queries=analyze_queries)

    def process_query(self, query: Query) -> ClusterOutcome:
        """Broadcast one query; latency is max over shards + merge."""
        if self.result_cache_entries > 0 and self._result_cache.get(query.key):
            self._result_cache.touch(query.key)
            self.stats.queries += 1
            self.stats.total_response_us += self.broker_hit_us
            self.stats.broker_cache_hits += 1
            return ClusterOutcome(
                query=query,
                response_us=self.broker_hit_us,
                shard_times_us=(),
                shard_result_hits=0,
            )
        times: list[float] = []
        hits = 0
        for i, shard in enumerate(self.shards):
            outcome = shard.process_query(query)
            times.append(outcome.response_us)
            self.stats.per_shard_busy_us[i] += outcome.response_us
            if outcome.result_hit_level > 0:
                hits += 1
        slowest = max(times)
        response = slowest + self.merge_overhead_us
        self.stats.queries += 1
        self.stats.total_response_us += response
        self.stats.straggler_us += slowest - sum(times) / len(times)
        if self.result_cache_entries > 0:
            self._result_cache.insert(query.key, True)
            while len(self._result_cache) > self.result_cache_entries:
                self._result_cache.pop_lru()
        return ClusterOutcome(
            query=query,
            response_us=response,
            shard_times_us=tuple(times),
            shard_result_hits=hits,
        )

    def run_open_loop(
        self,
        queries,
        arrivals,
        concurrency: int = 4,
        max_queue: int = 64,
        cpu_lanes: int = 1,
        label: str = "cluster",
        blame=None,
    ):
        """Serve ``queries`` open-loop with concurrent shard fan-out.

        Requires a cluster built with ``shared_clock=True``.  Each
        admitted query spawns one kernel subtask per shard, joins them
        (fan-out max emerges from the join, stragglers and all), then
        pays the merge cost on a ``broker`` CPU resource.  Returns an
        :class:`~repro.workloads.openloop.OpenLoopResult`.

        ``blame`` optionally takes a
        :class:`~repro.obs.blame.BlameRecorder`; it is attached to the
        fan-out kernel and admission control, so per-query critical
        paths cross the join into the straggler shard's resources.
        """
        from repro.sim.kernel import Kernel
        from repro.workloads.openloop import drive

        queries = list(queries)
        if not queries:
            raise ValueError("no queries to serve")
        clock = self.shards[0].manager.clock
        for shard in self.shards[1:]:
            if shard.manager.clock is not clock:
                raise ValueError(
                    "open-loop fan-out needs Broker.build(shared_clock=True)"
                )
        kernel = Kernel(clock)
        for shard in self.shards:
            shard.manager.hierarchy.attach_kernel(kernel, cpu_lanes=cpu_lanes)
        kernel.add_resource("broker", lanes=max(1, cpu_lanes))

        def serve(i: int) -> None:
            query = queries[i]
            subtasks = [
                kernel.spawn(
                    lambda s=shard: s.process_query(query),
                    name=f"q{i}s{shard.shard_id}",
                )
                for shard in self.shards
            ]
            for t in subtasks:
                t.join()
            clock.consume("broker", self.merge_overhead_us)

        try:
            return drive(kernel, len(queries), arrivals, serve,
                         concurrency=concurrency, max_queue=max_queue,
                         label=label,
                         observe=blame.attach if blame is not None else None)
        finally:
            clock.bind_kernel(None)

    # -- reporting ---------------------------------------------------------

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def total_ssd_erases(self) -> int:
        return sum(s.ssd_erase_count for s in self.shards)

    def cache_event_totals(self):
        """Cluster-wide cache-event counts: the key-wise sum of every
        shard's :class:`~repro.core.events.EventCounter`."""
        from repro.core.events import EventCounter

        total = EventCounter()
        for shard in self.shards:
            total.merge(shard.cache_events)
        return total

    def aggregated_registry(self):
        """One merged :class:`~repro.obs.MetricsRegistry` over all shards
        that carry telemetry (counters/histograms sum across shards)."""
        from repro.obs import MetricsRegistry

        merged = MetricsRegistry()
        for shard in self.shards:
            if shard.telemetry is not None:
                merged.merge(shard.telemetry.registry)
        return merged

    def shard_timelines(self) -> dict:
        """Per-shard window records (shard id -> list of windows).

        Finalizes each shard's recorder first, so the last partial
        window is included.
        """
        out = {}
        for shard in self.shards:
            tel = shard.telemetry
            timeline = getattr(tel, "timeline", None) if tel else None
            if timeline is not None:
                timeline.finish()
                out[shard.shard_id] = list(timeline.windows)
        return out

    def detect_skew(self, series: str = "hit_ratio",
                    rel_tol: float = 0.25):
        """Cross-shard skew anomalies over one windowed series."""
        from repro.obs import detect_shard_skew

        return detect_shard_skew(self.shard_timelines(), series=series,
                                 rel_tol=rel_tol)

    def combined_hit_ratio(self) -> float:
        """Request-weighted hit ratio across all shards."""
        hits = lookups = 0
        for shard in self.shards:
            s = shard.stats
            hits += (s.result_l1_hits + s.result_l2_hits
                     + s.list_l1_hits + s.list_l2_hits)
            lookups += s.result_lookups + s.list_lookups
        return hits / lookups if lookups else 0.0

    def describe(self) -> str:
        docs = sum(s.index.num_docs for s in self.shards)
        return f"Broker({self.num_shards} shards, {docs:,} docs total)"
