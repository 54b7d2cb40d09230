"""The cache manager (Fig. 2): a facade over the layered caches.

The paper's system is wired together here, but the behaviour lives in
composable layers:

* :class:`repro.core.result_cache.ResultCache` — the L1<->L2 result flow
  (memory entries, the write buffer, SSD result blocks, static results);
* :class:`repro.core.list_cache.ListCache` — the L1<->L2 inverted-list
  flow (memory prefixes, the SSD list region, static lists, HDD tails);
* :class:`repro.core.selection.SelectionPolicy` — admission (Formula
  1/2 + TEV) and :class:`repro.core.replacement.Replacement` — the victim
  rules of LRU / CBLRU / CBSLRU, both fixed by ``config.policy``;
* :class:`repro.core.events.CacheEvents` — the observability seam: one
  observer (the telemetry, or any object with the four hooks) sees the
  cache life cycle instead of reaching into cache internals (the caches
  count their own :class:`~repro.core.stats.CacheStats`).

``process_query`` runs the full Table I flow for one query and charges
every device access to the shared virtual clock, so mean response time,
throughput, hit ratios, SSD erase counts and the situation matrix all fall
out of one replay loop.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from repro._row import shape
from repro.core.config import CacheConfig, Policy
from repro.core.entries import CachedResult
from repro.core.events import CacheEvents
from repro.core.list_cache import ListCache
from repro.core.replacement import Replacement
from repro.core.result_cache import ResultCache
from repro.core.selection import SelectionPolicy
from repro.core.stats import CacheStats, Situation
from repro.engine.index import InvertedIndex
from repro.obs.audit import NULL_AUDIT
from repro.obs.tracer import NULL_TRACER
from repro.engine.processor import QueryProcessor
from repro.engine.query import Query
from repro.engine.querylog import QueryLog
from repro.flash.constants import FlashConfig
from repro.storage.hierarchy import HierarchyConfig, StorageHierarchy

__all__ = ["QueryOutcome", "CacheManager", "build_hierarchy_for"]

# Read once: a member read off the Enum class goes through the metaclass.
_S1 = Situation.S1
_S3 = Situation.S3
# The ``query`` span's attributes (repro._row): closed, or raised out of.
_QUERY = shape(("qid", "terms", "situation", "hit_level"))
_QUERY_OPEN = shape(("qid", "terms"))
#: Spare share of a built SSD's blocks (~12 %) over the cache file.
OVERPROVISION = 0.12


class QueryOutcome(NamedTuple):
    """What happened to one query (built once per query: a tuple)."""

    query: Query
    situation: Situation
    response_us: float
    #: 1 = L1 result hit, 2 = L2 result hit, 0 = computed
    result_hit_level: int


def build_hierarchy_for(
    cache_config: CacheConfig,
    index: InvertedIndex | None = None,
    index_on: str = "hdd",
) -> StorageHierarchy:
    """Build a storage hierarchy sized for a cache configuration.

    The SSD's flash geometry is derived from the cache-file size plus
    ``OVERPROVISION`` spare blocks, so garbage collection has realistic
    headroom regardless of the experiment's cache capacity.
    """
    base = FlashConfig()
    cache_blocks = max(1, cache_config.ssd_cache_bytes // base.block_bytes)
    num_blocks = int(cache_blocks / (1.0 - OVERPROVISION)) + 4
    ssd_cfg = replace(base, num_blocks=num_blocks, overprovision=OVERPROVISION)
    mem = max(
        64 * 1024 * 1024,
        2 * (cache_config.mem_result_bytes + cache_config.mem_list_bytes),
    )
    index_ssd_cfg = None
    if index_on == "ssd":
        index_bytes = index.index_bytes if index is not None else 2**30
        idx_blocks = (int((index_bytes // base.block_bytes + 1)
                          / (1.0 - OVERPROVISION)) + 4)
        index_ssd_cfg = replace(base, num_blocks=idx_blocks,
                                overprovision=OVERPROVISION)
    return StorageHierarchy(
        HierarchyConfig(
            memory_bytes=mem,
            ssd_cache=cache_config.uses_ssd,
            ssd_config=ssd_cfg,
            index_on=index_on,
            index_ssd_config=index_ssd_cfg,
        ),
    )


class CacheManager:
    """Two-level cache over a storage hierarchy and an inverted index.

    A thin facade: query management (the Table I flow) plus the wiring of
    the result/list cache layers, the admission and replacement rules
    ``config.policy`` selects, and the event bus.
    """

    def __init__(
        self,
        config: CacheConfig,
        hierarchy: StorageHierarchy,
        index: InvertedIndex,
        processor: QueryProcessor | None = None,
        materialize_results: bool = False,
        telemetry=None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.index = index
        self.processor = processor or QueryProcessor(index, top_k=config.top_k)
        self.materialize_results = materialize_results
        self.clock = hierarchy.clock
        self.mem = hierarchy.memory
        self.ssd = hierarchy.ssd
        self.store = hierarchy.index_store
        self.stats = CacheStats()
        #: the qid the next query takes in telemetry (spans, exemplars,
        #: blame): counted at entry, so queries in flight together differ,
        #: and not by ``stats``, so a reset after warm-up does not reuse one
        self.next_qid = 0
        self.events = CacheEvents()
        # Observability: the telemetry bundle (repro.obs) is optional and
        # must never perturb the simulation — the tracer and registry only
        # observe clock time and events the run produces anyway.
        self.telemetry = telemetry
        if telemetry is not None:
            telemetry.bind_clock(self.clock)
            telemetry.observe_cache_events(self.events)
            self._tracer = telemetry.tracer
            hierarchy.attach_tracer(self._tracer)
            self._audit = telemetry.audit
            hierarchy.attach_audit(self._audit)
            telemetry.observe_flash(self.ssd)
            if hasattr(self.store, "ftl") and self.store is not self.ssd:
                telemetry.observe_flash(self.store)
            telemetry.observe_stats(self.stats)
        else:
            self._tracer = NULL_TRACER
            self._audit = NULL_AUDIT

        if config.uses_ssd and self.ssd is None:
            raise ValueError("cache config needs an SSD tier but the hierarchy has none")
        if config.uses_ssd and self.ssd.capacity_bytes < config.ssd_cache_bytes:
            raise ValueError(
                f"SSD too small: cache file needs {config.ssd_cache_bytes} B, "
                f"device offers {self.ssd.capacity_bytes} B"
            )

        self.policy = Replacement(config, self._audit)
        self.selection = SelectionPolicy(
            block_bytes=config.block_bytes,
            tev=config.tev,
            cost_based=self.policy.cost_based,
        )
        self.result_cache = ResultCache(
            config=config,
            policy=self.policy,
            clock=self.clock,
            mem=self.mem,
            ssd=self.ssd,
            stats=self.stats,
            events=self.events,
            tracer=self._tracer,
            audit=self._audit,
        )
        self.list_cache = ListCache(
            config=config,
            policy=self.policy,
            selection=self.selection,
            index=index,
            clock=self.clock,
            mem=self.mem,
            ssd=self.ssd,
            store=self.store,
            stats=self.stats,
            events=self.events,
            tracer=self._tracer,
            audit=self._audit,
        )
        # The telemetry samples the caches, never ``self``: the manager
        # owns its telemetry, so the pair forms no reference cycle.
        if telemetry is not None:
            telemetry.observe_occupancy(self.result_cache.occupancy)
            telemetry.observe_occupancy(self.list_cache.occupancy)

    # ------------------------------------------------------------------
    # Query management (QM)
    # ------------------------------------------------------------------

    def process_query(self, query: Query) -> QueryOutcome:
        """Run one query through the Table I flow.

        With telemetry attached, the whole flow runs inside a ``query``
        span and the per-device busy-time deltas become the per-stage
        latency histograms (``stage_latency_us``); stage durations sum
        exactly to the query's response time.  The span costs one frame,
        its ``close``: it is opened inline (see :mod:`repro.obs.tracer`).
        """
        tel = self.telemetry
        if tel is None:
            return self._process_query(query)
        clock = self.clock
        busy0 = dict(clock._busy_us)  # busy_snapshot(), minus its frame
        qid = self.next_qid
        self.next_qid = qid + 1
        tracer = self._tracer
        if not tracer.enabled:
            outcome = self._process_query(query)
            tel.record_query(outcome.situation._name_, outcome.response_us,
                             busy0, clock, qid=qid)
            return outcome
        stack = tracer.stack
        parent = stack[-1]
        sid = next(tracer.ids)
        stack.append(sid)
        terms = len(query.key)
        start = tracer.clock._now_us
        try:
            outcome = self._process_query(query)
        except BaseException:
            tracer.close(sid, parent, "query", start,
                         _QUERY_OPEN((qid, terms)))
            raise
        # _name_: the member's name without enum's property frame
        situation = outcome.situation._name_
        tracer.close(sid, parent, "query", start,
                     _QUERY((qid, terms, situation, outcome.result_hit_level)))
        tel.record_query(situation, outcome.response_us, busy0, clock,
                         qid=qid, span_id=sid)
        return outcome

    def _process_query(self, query: Query) -> QueryOutcome:
        clock = self.clock
        t0 = clock._now_us  # the slot: no property frame
        hit_level = self.result_cache.lookup(query.key)
        if hit_level == 1:
            situation = _S1
        elif hit_level == 2:
            situation = _S3
        else:
            situation = self._compute_query(query)
        response = clock._now_us - t0
        self.stats.record_query(situation, response)
        return QueryOutcome(query, situation, response, hit_level)

    def _compute_query(self, query: Query) -> Situation:
        """Result miss: fetch lists, score, cache the new result entry."""
        self.stats.result_misses += 1
        plan = self.processor.plan(query)
        used_mem = used_ssd = used_hdd = False
        for demand in plan.demands:
            src_mem, src_ssd, src_hdd = self.list_cache.fetch(
                demand.term_id, demand.needed_bytes, demand.list_bytes, demand.pu
            )
            used_mem |= src_mem
            used_ssd |= src_ssd
            used_hdd |= src_hdd

        # charge=False: CPU attribution stays the response-time residual
        # (stage histograms derive it), but under a kernel the scoring
        # work still contends for the server's CPU lanes.
        self.clock.consume(self.hierarchy.cpu_channel,
                           self.processor.cpu_time_us(plan), charge=False)
        if self.materialize_results:
            # (CPU time came from cpu_time_us; the entry has no reader.)
            self.processor.execute(plan)
        entry = CachedResult(
            query_key=query.key,
            nbytes=self.config.result_entry_bytes,
            created_us=self.clock.now_us,
        )
        self.result_cache.admit_l1(entry, from_lower=False)
        self.result_cache.maybe_refresh_static(query.key, entry)
        if not (used_mem or used_ssd or used_hdd):
            # Degenerate: every demand was zero bytes — treat as memory.
            used_mem = True
        return Situation.for_lists(used_mem, used_ssd, used_hdd)

    # ------------------------------------------------------------------
    # CBSLRU static partition (Section VI.C.2)
    # ------------------------------------------------------------------

    def warmup_static(self, log: QueryLog, analyze_queries: int | None = None) -> dict:
        """Fill the static partitions by analysing a query log.

        The most frequent queries and the highest-EV terms are written to
        SSD once and pinned: no eviction, no replacement ever touches
        them.  Returns a summary dict (entries placed, blocks used).

        By default only the first half of the log is analysed (yesterday's
        log predicting today's traffic); queries seen once are never
        pinned — a singleton tells the analysis nothing about the future.
        """
        if not self.config.uses_static:
            if self.config.policy is not Policy.CBSLRU:
                raise ValueError("warmup_static only applies to the CBSLRU policy")
            raise ValueError("warmup_static needs an SSD tier")

        n = analyze_queries if analyze_queries is not None else len(log) // 2
        qfreq: dict[tuple[int, ...], int] = {}
        tfreq: dict[int, int] = {}
        for query in log.head(n):
            qfreq[query.key] = qfreq.get(query.key, 0) + 1
            for t in query.key:
                tfreq[t] = tfreq.get(t, 0) + 1

        top_queries = sorted(
            ((k, f) for k, f in qfreq.items() if f >= 2), key=lambda kv: -kv[1]
        )
        summary = self.result_cache.place_static(top_queries)
        summary.update(self.list_cache.place_static(tfreq))
        return summary

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify internal consistency (used by property tests).

        * L1 byte accounting matches the entries actually held;
        * capacities are respected;
        * SSD list blocks are disjoint across entries and within regions;
        * every valid RB slot maps back to a result entry and vice versa.
        """
        self.result_cache.check_invariants()
        self.list_cache.check_invariants()

    def occupancy(self) -> dict:
        """Current cache occupancy for inspection and tests."""
        result_occ = self.result_cache.occupancy()
        list_occ = self.list_cache.occupancy()
        return {
            "l1_result_bytes": result_occ["l1_result_bytes"],
            "l1_list_bytes": list_occ["l1_list_bytes"],
            "l1_results": result_occ["l1_results"],
            "l1_lists": list_occ["l1_lists"],
            "l2_results": result_occ["l2_results"],
            "l2_lists": list_occ["l2_lists"],
            "static_results": result_occ["static_results"],
            "static_lists": list_occ["static_lists"],
            "write_buffer": result_occ["write_buffer"],
        }

    # ------------------------------------------------------------------
    # Compatibility accessor into the layered caches
    # ------------------------------------------------------------------

    @property
    def l1_lists(self):
        return self.list_cache.l1
