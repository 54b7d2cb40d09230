"""Three-level caching: results, inverted lists, and intersections.

The paper's conclusion points at Long & Suel's three-level scheme [19] as
future work: besides results and single-term lists, cache the
*intersections* of frequently co-occurring term pairs.  An intersection
is far smaller than either list (independence estimate
|A∩B| ~ df_A * df_B / N), so serving a pair from its cached intersection
replaces two large prefix reads with one small memory read.

:class:`ThreeLevelCacheManager` extends the paper's two-level manager
with a memory-resident intersection cache: pairs seen at least
``MIN_PAIR_FREQ`` times are admitted after being computed once, and later
queries containing a cached pair skip fetching both member lists.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import CacheConfig
from repro.core.entries import CachedResult
from repro.core.lru import LruList
from repro.core.manager import CacheManager
from repro.core.stats import Situation
from repro.engine.postings import POSTING_BYTES
from repro.engine.query import Query

__all__ = ["IntersectionEntry", "IntersectionCache", "ThreeLevelCacheManager"]

#: Occurrences of a term pair before its intersection is admitted.
MIN_PAIR_FREQ = 2


@dataclass
class IntersectionEntry:
    """A cached pairwise posting-list intersection."""

    pair: tuple[int, int]
    nbytes: int
    #: postings in the intersection (what scoring must traverse)
    postings: int
    freq: int = 1
    created_us: float = 0.0

    def touch(self) -> None:
        self.freq += 1

    def expired(self, now_us: float, ttl_us: float) -> bool:
        return ttl_us > 0 and now_us - self.created_us > ttl_us


class IntersectionCache:
    """LRU cache of pairwise intersections with byte-budget eviction."""

    def __init__(self, capacity_bytes: int, replace_window: int = 5) -> None:
        if capacity_bytes < 0:
            raise ValueError("capacity_bytes cannot be negative")
        self.capacity_bytes = capacity_bytes
        self._lru: LruList[tuple[int, int], IntersectionEntry] = LruList(replace_window)
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def used_bytes(self) -> int:
        return self._bytes

    def occupancy(self) -> dict:
        return {"intersections": len(self),
                "intersection_bytes": self._bytes}

    def lookup(
        self, pair: tuple[int, int], now_us: float = 0.0, ttl_us: float = 0.0
    ) -> IntersectionEntry | None:
        """Look up a pair; stale entries (dynamic scenario) count as misses
        and are dropped."""
        entry = self._lru.get(pair)
        if entry is not None and entry.expired(now_us, ttl_us):
            self.drop(pair)
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self._lru.touch(pair)
        entry.touch()
        self.hits += 1
        return entry

    def insert(self, entry: IntersectionEntry) -> bool:
        """Admit an intersection; returns False if it cannot ever fit."""
        if entry.nbytes > self.capacity_bytes:
            return False
        existing = self._lru.get(entry.pair)
        if existing is not None:
            self._lru.pop(entry.pair)
            self._bytes -= existing.nbytes
        while self._bytes + entry.nbytes > self.capacity_bytes and len(self._lru):
            _, victim = self._lru.pop_lru()
            self._bytes -= victim.nbytes
        self._lru.insert(entry.pair, entry)
        self._bytes += entry.nbytes
        return True

    def drop(self, pair: tuple[int, int]) -> None:
        entry = self._lru.get(pair)
        if entry is not None:
            self._lru.pop(pair)
            self._bytes -= entry.nbytes


def estimate_intersection_postings(df_a: int, df_b: int, num_docs: int) -> int:
    """Independence estimate of |A ∩ B| (at least 1 to keep entries real)."""
    if num_docs <= 0:
        raise ValueError("num_docs must be positive")
    return max(1, int(df_a * df_b / num_docs))


class ThreeLevelCacheManager(CacheManager):
    """Two-level cache + an intermediate intersection level [19]."""

    def __init__(
        self,
        config: CacheConfig,
        hierarchy,
        index,
        processor=None,
        intersection_bytes: int = 8 * 1024 * 1024,
        materialize_results: bool = False,
        telemetry=None,
    ) -> None:
        super().__init__(config, hierarchy, index, processor,
                         materialize_results=materialize_results,
                         telemetry=telemetry)
        self.intersections = IntersectionCache(
            intersection_bytes, replace_window=config.replace_window
        )
        if telemetry is not None:
            telemetry.observe_occupancy(self.intersections.occupancy)
        self._pair_freq: dict[tuple[int, int], int] = {}

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _pairs(key: tuple[int, ...]) -> list[tuple[int, int]]:
        return [(key[i], key[j])
                for i in range(len(key)) for j in range(i + 1, len(key))]

    def _intersection_for(self, pair: tuple[int, int]) -> IntersectionEntry:
        """Size the intersection of the two *traversed prefixes*.

        The processor only ever scores the frequency-sorted prefixes (the
        utilization rates), so the cached intersection is the meet of
        those prefixes — typically far smaller than either one.
        """
        stats = self.index.stats
        used_a = int(stats.doc_freqs[pair[0]] * stats.utilization[pair[0]])
        used_b = int(stats.doc_freqs[pair[1]] * stats.utilization[pair[1]])
        postings = estimate_intersection_postings(
            max(1, used_a), max(1, used_b), self.index.num_docs
        )
        return IntersectionEntry(
            pair=pair,
            # Two tf values per posting: slightly wider records.
            nbytes=postings * (POSTING_BYTES + 4),
            postings=postings,
            created_us=self.clock.now_us,
        )

    # -- the three-level compute path -------------------------------------

    def _compute_query(self, query: Query) -> Situation:
        """Like the two-level path, but cached pair intersections serve
        both of their member terms from memory."""
        self.stats.result_misses += 1
        plan = self.processor.plan(query)

        served: set[int] = set()
        inter_postings = 0
        for pair in self._pairs(query.key):
            if pair[0] in served or pair[1] in served:
                continue
            entry = self.intersections.lookup(
                pair, now_us=self.clock.now_us, ttl_us=self.config.ttl_us
            )
            if entry is None:
                continue
            self.mem.read(0, entry.nbytes)
            served.update(pair)
            inter_postings += entry.postings

        used_mem = bool(served)
        used_ssd = used_hdd = False
        remaining_postings = 0
        for demand in plan.demands:
            if demand.term_id in served:
                continue
            src_mem, src_ssd, src_hdd = self.list_cache.fetch(
                demand.term_id, demand.needed_bytes, demand.list_bytes, demand.pu
            )
            used_mem |= src_mem
            used_ssd |= src_ssd
            used_hdd |= src_hdd
            remaining_postings += demand.postings

        # Scoring traverses only intersections + unserved prefixes.
        costs = self.processor.costs
        cpu = (costs.fixed_us
               + costs.per_posting_us * (remaining_postings + inter_postings)
               + costs.per_result_us * self.processor.top_k)
        self.clock.consume(self.hierarchy.cpu_channel, cpu, charge=False)
        if self.materialize_results:
            self.processor.execute(plan)
        entry = CachedResult(
            query_key=query.key,
            nbytes=self.config.result_entry_bytes,
            created_us=self.clock.now_us,
        )
        self.result_cache.admit_l1(entry, from_lower=False)
        self.result_cache.maybe_refresh_static(query.key, entry)

        self._admit_intersections(query, plan, served)

        if not (used_mem or used_ssd or used_hdd):
            used_mem = True
        return Situation.for_lists(used_mem, used_ssd, used_hdd)

    def _admit_intersections(self, query: Query, plan, served: set[int]) -> None:
        """After computing with full lists in hand, build and admit the
        intersections of recurring pairs (charging the merge CPU)."""
        by_term = {d.term_id: d for d in plan.demands}
        for pair in self._pairs(query.key):
            if pair[0] in served or pair[1] in served:
                continue  # no fresh lists were traversed for these
            freq = self._pair_freq.get(pair, 0) + 1
            self._pair_freq[pair] = freq
            if freq < MIN_PAIR_FREQ:
                continue
            if self.intersections._lru.get(pair) is not None:
                continue
            entry = self._intersection_for(pair)
            # Merging costs one pass over both traversed prefixes.
            merge_postings = by_term[pair[0]].postings + by_term[pair[1]].postings
            self.clock.consume(self.hierarchy.cpu_channel,
                               self.processor.costs.per_posting_us * merge_postings,
                               charge=False)
            self.intersections.insert(entry)

    def occupancy(self) -> dict:
        occ = super().occupancy()
        occ.update(self.intersections.occupancy())
        return occ
