"""Replacement management (Section VI): the paper's victim rules.

The three policies of Figs. 14(b)/17/19 are one setting,
``CacheConfig.policy``, not three classes:

* ``LRU`` — the conventional baseline: strict recency-order memory
  victims, byte-granular SSD extents, no REPLACEABLE state, no TRIM on
  drop;
* ``CBLRU`` — cost-based: Fig. 12's min-EV memory victim, Fig. 11's
  max-IREN result block, Fig. 13's staged list search, whole-block
  placement (Formula 1), REPLACEABLE tracking and TRIM on drop;
* ``CBSLRU`` — CBLRU plus the pinned static partition
  (``CacheConfig.uses_static``), which no victim rule here ever touches.

Under LRU the SSD victims are chosen by the caches' own recency paths
(``ResultCache._lru_to_ssd`` / ``ListCache._lru_to_ssd``), so only the
memory victim has an LRU branch here.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING

from repro._row import pairs, shape
from repro.core.config import Policy
from repro.core.entries import EntryState
from repro.core.events import L2VictimEvent
from repro.obs.audit import NULL_AUDIT

if TYPE_CHECKING:
    from repro.core.config import CacheConfig
    from repro.core.list_cache import ListCache
    from repro.core.lru import LruList

__all__ = ["Replacement"]

# The audited victim walks' inputs (repro._row), by record shape; their
# ``candidates`` are pair columns: term ids and EVs, RB ids and IRENs.
_LRU_VICTIM = shape(("branch", "protect"))
_L1_VICTIM = shape(("branch", "protect", "candidates", "ev"))
_RB_VICTIM = shape(("branch", "candidates", "iren"))
_FREE_SPACE = shape(("sc_needed", "free_blocks"))
_EV_PAIRS = pairs("i", "d")
_IREN_PAIRS = pairs("q", "i")


class Replacement:
    """The victim rules of one cache manager, fixed by its config."""

    def __init__(self, config: CacheConfig, audit=NULL_AUDIT) -> None:
        #: False only for the LRU baseline: byte-granular SSD placement,
        #: read-back SSD copies stay NORMAL, dropped entries are not
        #: TRIMmed, and memory victims follow strict recency.
        self.cost_based = config.policy is not Policy.LRU
        #: Decision audit log (repro.obs.audit); NULL_AUDIT keeps victim
        #: walks allocation-free.
        self.audit = audit
        # The audited Fig. 12 walk's candidate columns, packed into its
        # record's pair column and cleared for the next walk: there is
        # one per L1 eviction, and building two arrays each time costs
        # more than the walk's appends.
        self._keys, self._evs = array("i"), array("d")

    def pick_l1_list_victim(
        self, lists: LruList, protect: int | None, config: CacheConfig
    ) -> int | None:
        """Fig. 12: the minimum-EV entry inside the replace-first region.

        Under LRU, the least recent entry other than ``protect``.
        """
        if not self.cost_based:
            for key, _ in lists.items_lru_order():
                if key != protect:
                    if self.audit.enabled:
                        self.audit.append("list.l1-victim", "list", key,
                                          _LRU_VICTIM(("lru", protect)))
                    return key
            return None
        auditing = self.audit.enabled
        if auditing:
            keys, evs = self._keys, self._evs
            del keys[:], evs[:]
            add_key, add_ev = keys.append, evs.append
        best_key = None
        best_ev = float("inf")
        sb = config.block_bytes
        for key, entry in lists.replace_first_region():
            if key == protect:
                continue
            # Formula 1 + 2 inlined (same arithmetic as
            # CachedList.formula1_pu / ssd_cache_blocks / efficiency_value,
            # whose range checks are guaranteed here by
            # CachedList.__post_init__): this walk evaluates every RFR
            # candidate on every L1 eviction, so the call + validation
            # overhead of the property and module functions dominates it.
            si = entry.cached_bytes
            sc = 1
            if si > 0:
                mean = entry.mean_needed_bytes
                pu = min(1.0, mean / si) if mean > 0 else entry.pu
                sc = -(-int(si * pu) // sb)
                if sc < 1:
                    sc = 1
            ev = entry.freq / sc
            if auditing:
                add_key(key)
                add_ev(ev)
            if ev < best_ev:
                best_ev = ev
                best_key = key
        branch = "rfr-min-ev"
        if best_key is None:
            branch = "lru-fallback"
            for key, _ in lists.items_lru_order():
                if key != protect:
                    best_key = key
                    break
        if auditing and best_key is not None:
            self.audit.append("list.l1-victim", "list", best_key, _L1_VICTIM((
                branch, protect, _EV_PAIRS(b"".join((keys, evs))),
                best_ev if branch == "rfr-min-ev" else None)))
        return best_key

    def pick_rb_victim(self, rb_lru: LruList) -> int:
        """Fig. 11: the maximum-IREN result block in the RFR."""
        auditing = self.audit.enabled
        if auditing:
            ids, irens = array("q"), array("i")
        victim_id = None
        best_iren = -1
        for rb_id, rb in rb_lru.replace_first_region():
            if auditing:
                ids.append(rb_id)
                irens.append(rb.iren)
            if rb.iren > best_iren:
                best_iren = rb.iren
                victim_id = rb_id
        branch = "rfr-max-iren"
        if victim_id is None:
            branch = "lru-fallback"
            victim_id, _ = rb_lru.peek_lru()
        if auditing:
            self.audit.append("rb.victim", "rb", victim_id, _RB_VICTIM((
                branch, _IREN_PAIRS(b"".join((ids, irens))),
                best_iren if branch == "rfr-max-iren" else None)))
        return victim_id

    def free_list_space(self, cache: ListCache, sc_needed: int) -> None:
        """The staged victim search of Fig. 13.

        1) REPLACEABLE entries in the replace-first region; 2) a NORMAL
        RFR entry of exactly the needed size; 3) assembling several RFR
        entries; 4) the whole-list fallback.
        """
        region = cache.region
        if self.audit.enabled:
            # The staged search context; each victim it claims follows as
            # an `l2-victim` record carrying its Fig. 13 stage.
            self.audit.append("list.free-space", "list", None,
                              _FREE_SPACE((sc_needed, region.free_count)))
        # Free space only moves when a victim is dropped, so each stage
        # re-reads it after a drop and nowhere else.
        if region.free_count >= sc_needed:
            return
        stats = cache.stats
        events = cache.events
        # Stage 1: replaceable entries in the RFR are free wins.
        rfr = cache.l2.replace_first_region()
        dropped = False
        for key, entry in rfr:
            if entry.state is EntryState.REPLACEABLE:
                cache.drop_l2(key, trim=True, reason="capacity")
                stats.evict_stage_replaceable += 1
                if events.observed:
                    events.l2_victim(L2VictimEvent(kind="list", key=key,
                                                   stage="replaceable"))
                if region.free_count >= sc_needed:
                    return
                dropped = True
        if dropped:
            rfr = cache.l2.replace_first_region()  # the window slid
        # Stage 2: a NORMAL RFR entry of exactly the missing size.
        deficit = sc_needed - region.free_count
        for key, entry in rfr:
            if len(entry.blocks) == deficit:
                cache.drop_l2(key, trim=True, reason="capacity")
                stats.evict_stage_size_match += 1
                if events.observed:
                    events.l2_victim(L2VictimEvent(kind="list", key=key,
                                                   stage="size-match"))
                return
        # Stage 3: assemble several RFR entries (stage 2 dropped nothing,
        # so its window is still the window).
        for key, _ in rfr:
            cache.drop_l2(key, trim=True, reason="capacity")
            stats.evict_stage_assemble += 1
            if events.observed:
                events.l2_victim(L2VictimEvent(kind="list", key=key,
                                               stage="assemble"))
            if region.free_count >= sc_needed:
                return
        # Stage 4: widen to the whole LRU list (the paper's worst case).
        for key, _ in list(cache.l2.items_lru_order()):
            cache.drop_l2(key, trim=True, reason="capacity")
            stats.evict_stage_fallback += 1
            if events.observed:
                events.l2_victim(L2VictimEvent(kind="list", key=key,
                                               stage="fallback"))
            if region.free_count >= sc_needed:
                return
