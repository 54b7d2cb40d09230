"""Cache statistics, including the Table I situation matrix.

Table I classifies each query by where its data came from: S1/S3 are
result-cache hits (memory/SSD); S2 and S4-S9 are the seven combinations of
sources — memory, SSD, HDD — that served the query's inverted lists.  The
stats object counts every situation, accumulates its time cost, and
derives the hit ratios plotted in Fig. 14.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Situation", "CacheStats", "StatsRecorder"]


class Situation(enum.Enum):
    """The nine retrieval situations of Table I."""

    S1 = "result from memory"
    S2 = "lists from memory"
    S3 = "result from SSD"
    S4 = "lists from memory+SSD"
    S5 = "lists from SSD"
    S6 = "lists from memory+HDD"
    S7 = "lists from SSD+HDD"
    S8 = "lists from HDD"
    S9 = "lists from memory+SSD+HDD"

    # Members are singletons: hashing by identity keeps the dicts that
    # ``record_query`` updates per query out of the Python-level
    # ``Enum.__hash__``.  Never iterate a *set* of situations (address
    # order); dicts iterate in insertion order regardless.
    __hash__ = object.__hash__

    @staticmethod
    def for_lists(mem: bool, ssd: bool, hdd: bool) -> "Situation":
        """Classify a computed query by the sources that served its lists."""
        match (mem, ssd, hdd):
            case (True, False, False):
                return Situation.S2
            case (True, True, False):
                return Situation.S4
            case (False, True, False):
                return Situation.S5
            case (True, False, True):
                return Situation.S6
            case (False, True, True):
                return Situation.S7
            case (False, False, True):
                return Situation.S8
            case (True, True, True):
                return Situation.S9
        raise ValueError("a computed query must read lists from somewhere")


@dataclass
class CacheStats:
    """Counters maintained by the cache manager."""

    queries: int = 0
    total_response_us: float = 0.0

    # result cache
    result_l1_hits: int = 0
    result_l2_hits: int = 0
    result_misses: int = 0

    # inverted-list cache (per term lookup)
    list_l1_hits: int = 0
    list_l2_hits: int = 0
    list_partial_hits: int = 0  # prefix from cache, tail from HDD
    list_misses: int = 0

    # SSD traffic bookkeeping
    ssd_result_writes: int = 0
    ssd_list_writes: int = 0
    ssd_writes_avoided: int = 0  # replaceable-state skip (Section VI.C)
    discarded_by_tev: int = 0

    # CBLRU list-victim search stages (Fig. 13): replaceable-in-RFR,
    # size-matched, assembled-from-RFR, whole-list fallback
    evict_stage_replaceable: int = 0
    evict_stage_size_match: int = 0
    evict_stage_assemble: int = 0
    evict_stage_fallback: int = 0

    # dynamic scenario (TTL, Section IV.B)
    expired_results: int = 0
    expired_lists: int = 0
    static_refreshes: int = 0

    situation_counts: dict[Situation, int] = field(
        default_factory=lambda: {s: 0 for s in Situation}
    )
    situation_time_us: dict[Situation, float] = field(
        default_factory=lambda: {s: 0.0 for s in Situation}
    )

    # -- recording -----------------------------------------------------------

    def record_query(self, situation: Situation, response_us: float) -> None:
        self.queries += 1
        self.total_response_us += response_us
        self.situation_counts[situation] += 1
        self.situation_time_us[situation] += response_us

    # -- derived metrics -----------------------------------------------------

    @property
    def result_lookups(self) -> int:
        return self.result_l1_hits + self.result_l2_hits + self.result_misses

    @property
    def list_lookups(self) -> int:
        return (self.list_l1_hits + self.list_l2_hits
                + self.list_partial_hits + self.list_misses)

    @property
    def result_hit_ratio(self) -> float:
        n = self.result_lookups
        return (self.result_l1_hits + self.result_l2_hits) / n if n else 0.0

    @property
    def list_hit_ratio(self) -> float:
        n = self.list_lookups
        return (self.list_l1_hits + self.list_l2_hits) / n if n else 0.0

    @property
    def combined_hit_ratio(self) -> float:
        """Hits over all data requests (the Fig. 14 'RIC' quantity)."""
        n = self.result_lookups + self.list_lookups
        if not n:
            return 0.0
        hits = (self.result_l1_hits + self.result_l2_hits
                + self.list_l1_hits + self.list_l2_hits)
        return hits / n

    @property
    def mean_response_us(self) -> float:
        return self.total_response_us / self.queries if self.queries else 0.0

    @property
    def throughput_qps(self) -> float:
        """Queries per second of simulated time."""
        if self.total_response_us <= 0:
            return 0.0
        return self.queries / (self.total_response_us / 1e6)

    def situation_table(self) -> list[tuple[str, float, float]]:
        """Table I rows: (situation, probability, mean time cost ms)."""
        rows = []
        for s in Situation:
            count = self.situation_counts[s]
            prob = count / self.queries if self.queries else 0.0
            mean_ms = (self.situation_time_us[s] / count / 1000.0) if count else 0.0
            rows.append((s.name, prob, mean_ms))
        return rows

    def reset(self) -> None:
        """Zero everything (used after warm-up phases)."""
        self.__init__()


class StatsRecorder:
    """Routes cache events into :class:`CacheStats` replacement counters.

    The layered caches announce SSD writes, avoided rewrites, TEV
    discards and victim-search stages on the
    :class:`~repro.core.events.CacheEvents` bus; this subscriber turns
    them into the counters the analysis layer reads, so the caches never
    update replacement statistics directly.
    """

    _STAGE_FIELDS = {
        "replaceable": "evict_stage_replaceable",
        "size-match": "evict_stage_size_match",
        "assemble": "evict_stage_assemble",
        "fallback": "evict_stage_fallback",
    }

    def __init__(self, stats: CacheStats, events) -> None:
        self.stats = stats
        self._unsubscribe = events.subscribe(
            on_admit=self._on_admit,
            on_evict=self._on_evict,
            on_flush=self._on_flush,
            on_l2_victim=self._on_l2_victim,
        )

    def _on_admit(self, event) -> None:
        if event.reason == "revalidate":
            self.stats.ssd_writes_avoided += 1

    def _on_evict(self, event) -> None:
        if event.reason == "tev":
            self.stats.discarded_by_tev += 1

    def _on_flush(self, event) -> None:
        if event.kind == "result":
            self.stats.ssd_result_writes += 1
        else:
            self.stats.ssd_list_writes += 1

    def _on_l2_victim(self, event) -> None:
        field_name = self._STAGE_FIELDS.get(event.stage)
        if field_name is not None:
            setattr(self.stats, field_name, getattr(self.stats, field_name) + 1)

    def close(self) -> None:
        self._unsubscribe()
