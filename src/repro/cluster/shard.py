"""Index shards: one document partition, one server, one hybrid cache.

Document partitioning (each shard indexes 1/N of the collection, every
shard sees every query) is what large engines deploy — it keeps tail
latency bounded and lets result quality degrade gracefully — and it is
the regime the paper's per-server cache operates in.
"""

from __future__ import annotations

from repro.core.config import CacheConfig
from repro.core.manager import CacheManager, QueryOutcome, build_hierarchy_for
from repro.engine.corpus import CorpusConfig, CorpusStats, build_corpus_stats
from repro.engine.index import InvertedIndex
from repro.engine.query import Query
from repro.engine.querylog import QueryLog

__all__ = ["IndexShard", "partition_corpus"]


def partition_corpus(
    base: CorpusConfig, num_shards: int
) -> list[CorpusStats]:
    """Split a collection over ``num_shards`` document partitions.

    Every shard keeps the full vocabulary (documents are hashed across
    shards, so every common term appears everywhere) with ~1/N of each
    term's postings.  Shards get derived seeds so their lists differ.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    docs_per_shard = max(1, base.num_docs // num_shards)
    return [
        build_corpus_stats(
            CorpusConfig(
                num_docs=docs_per_shard,
                vocab_size=base.vocab_size,
                avg_doc_len=base.avg_doc_len,
                zipf_s=base.zipf_s,
                zipf_q=base.zipf_q,
                seed=base.seed + 1000 * shard,
            )
        )
        for shard in range(num_shards)
    ]


class IndexShard:
    """One index server: a partition's index plus its two-level cache."""

    def __init__(
        self,
        shard_id: int,
        stats: CorpusStats,
        cache_config: CacheConfig,
        telemetry=None,
        clock=None,
    ) -> None:
        if shard_id < 0:
            raise ValueError("shard_id cannot be negative")
        self.shard_id = shard_id
        self.index = InvertedIndex(stats)
        self.cache_config = cache_config
        # A shared cluster clock needs per-shard device names; private
        # clocks keep the seed's bare names (golden-parity fixtures).
        hierarchy = build_hierarchy_for(
            cache_config, self.index, clock=clock,
            device_suffix=f"#{shard_id}" if clock is not None else "",
        )
        # Per-shard telemetry (repro.obs): each server owns its registry
        # and tracer; the broker aggregates registries across shards.
        self.telemetry = telemetry
        self.manager = CacheManager(cache_config, hierarchy, self.index,
                                    telemetry=telemetry)

    def warmup_static(self, log: QueryLog, analyze_queries: int | None = None):
        """Provision the static partition when the policy supports one."""
        if self.cache_config.uses_static:
            return self.manager.warmup_static(log, analyze_queries=analyze_queries)
        return None

    def process_query(self, query: Query) -> QueryOutcome:
        return self.manager.process_query(query)

    @property
    def stats(self):
        return self.manager.stats

    @property
    def ssd_erase_count(self) -> int:
        return self.manager.ssd.erase_count if self.manager.ssd else 0

    def describe(self) -> str:
        return (
            f"shard {self.shard_id}: {self.index.num_docs:,} docs, "
            f"{self.cache_config.policy.value} cache"
        )
