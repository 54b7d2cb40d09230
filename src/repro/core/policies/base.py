"""Admission and replacement policy protocols.

A cache policy splits into two pluggable pieces:

* an :class:`AdmissionPolicy` decides *whether and how much* of a
  memory-evicted entry goes to the SSD tier (the paper's selection
  management: Formula 1 sizing, Formula 2's EV, the TEV filter);
* a :class:`ReplacementPolicy` decides *which victims make room* — in
  the memory tier (L1 list victims), the SSD result region (Fig. 11's
  IREN-ranked RBs) and the SSD list region (Fig. 13's staged search).

:class:`BaseReplacementPolicy` supplies the shared cost-based defaults
so a concrete policy only overrides what differs.  Third-party policies
subclass it (or implement the protocol structurally) and register a
factory with :func:`repro.core.policies.register_policy`; the cache
manager resolves ``CacheConfig.policy`` through that registry, so no
manager code changes when a policy is added.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.entries import EntryState
from repro.core.events import L2VictimEvent
from repro.core.selection import SelectionDecision, SelectionPolicy
from repro.obs.audit import NULL_AUDIT

if TYPE_CHECKING:
    from repro.core.config import CacheConfig
    from repro.core.list_cache import ListCache
    from repro.core.lru import LruList

__all__ = ["AdmissionPolicy", "ReplacementPolicy", "BaseReplacementPolicy"]


@runtime_checkable
class AdmissionPolicy(Protocol):
    """Selection management: SSD admission of memory-evicted lists."""

    def select_list(self, si_bytes: int, pu: float, freq: int) -> SelectionDecision:
        """Decide admission, placement size (SC blocks) and EV."""
        ...


@runtime_checkable
class ReplacementPolicy(Protocol):
    """Replacement management: victim selection across both tiers."""

    #: registry key and display name
    name: str
    #: True -> whole-block SSD placement (Formula 1); False -> the
    #: byte-granular baseline layout
    cost_based: bool
    #: True -> SSD copies read back to memory turn REPLACEABLE and can be
    #: re-validated without a rewrite (Section VI.C)
    tracks_replaceable: bool
    #: True -> dropped SSD entries are TRIMmed so FTL GC can skip them
    trim_on_drop: bool
    #: True -> the policy uses warmup_static's pinned partition (CBSLRU)
    supports_static: bool

    def build_admission(self, config: CacheConfig) -> AdmissionPolicy: ...

    def pick_l1_list_victim(
        self, lists: LruList, protect: int | None, config: CacheConfig
    ) -> int | None: ...

    def pick_rb_victim(self, rb_lru: LruList) -> int: ...

    def free_list_space(self, cache: ListCache, sc_needed: int) -> None: ...


class BaseReplacementPolicy:
    """Shared victim-search machinery of the cost-based policies."""

    name = "base"
    cost_based = True
    tracks_replaceable = True
    trim_on_drop = True
    supports_static = False
    #: Decision audit log (repro.obs.audit); the manager replaces this
    #: per instance when telemetry is attached.  Disabled by default so
    #: victim walks stay allocation-free.
    audit = NULL_AUDIT

    def build_admission(self, config: CacheConfig) -> AdmissionPolicy:
        return SelectionPolicy(
            block_bytes=config.block_bytes,
            tev=config.tev,
            cost_based=self.cost_based,
        )

    def pick_l1_list_victim(
        self, lists: LruList, protect: int | None, config: CacheConfig
    ) -> int | None:
        """Fig. 12: the minimum-EV entry inside the replace-first region."""
        auditing = self.audit.enabled
        candidates: list[tuple[int, float]] = [] if auditing else None
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
                candidates.append((key, ev))
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
            self.audit.record(
                "list.l1-victim", "list", best_key,
                branch=branch, protect=protect, candidates=candidates,
                ev=best_ev if branch == "rfr-min-ev" else None,
            )
        return best_key

    def pick_rb_victim(self, rb_lru: LruList) -> int:
        """Fig. 11: the maximum-IREN result block in the RFR."""
        auditing = self.audit.enabled
        candidates: list[tuple[int, int]] = [] if auditing else None
        victim_id = None
        best_iren = -1
        for rb_id, rb in rb_lru.replace_first_region():
            if auditing:
                candidates.append((rb_id, rb.iren))
            if rb.iren > best_iren:
                best_iren = rb.iren
                victim_id = rb_id
        branch = "rfr-max-iren"
        if victim_id is None:
            branch = "lru-fallback"
            victim_id, _ = rb_lru.peek_lru()
        if auditing:
            self.audit.record(
                "rb.victim", "rb", victim_id,
                branch=branch, candidates=candidates,
                iren=best_iren if branch == "rfr-max-iren" else None,
            )
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
            self.audit.record(
                "list.free-space", "list", None,
                sc_needed=sc_needed, free_blocks=region.free_count,
            )
        # Free space only moves when a victim is dropped, so each stage
        # re-reads it after a drop and nowhere else.
        if region.free_count >= sc_needed:
            return
        # Stage 1: replaceable entries in the RFR are free wins.
        rfr = cache.l2.replace_first_region()
        dropped = False
        for key, entry in rfr:
            if entry.state is EntryState.REPLACEABLE:
                cache.drop_l2(key, trim=True)
                cache.events.l2_victim(
                    L2VictimEvent(kind="list", key=key, stage="replaceable")
                )
                if region.free_count >= sc_needed:
                    return
                dropped = True
        if dropped:
            rfr = cache.l2.replace_first_region()  # the window slid
        # Stage 2: a NORMAL RFR entry of exactly the missing size.
        deficit = sc_needed - region.free_count
        for key, entry in rfr:
            if len(entry.blocks) == deficit:
                cache.drop_l2(key, trim=True)
                cache.events.l2_victim(
                    L2VictimEvent(kind="list", key=key, stage="size-match")
                )
                return
        # Stage 3: assemble several RFR entries (stage 2 dropped nothing,
        # so its window is still the window).
        for key, _ in rfr:
            cache.drop_l2(key, trim=True)
            cache.events.l2_victim(
                L2VictimEvent(kind="list", key=key, stage="assemble")
            )
            if region.free_count >= sc_needed:
                return
        # Stage 4: widen to the whole LRU list (the paper's worst case).
        for key, _ in list(cache.l2.items_lru_order()):
            cache.drop_l2(key, trim=True)
            cache.events.l2_victim(
                L2VictimEvent(kind="list", key=key, stage="fallback")
            )
            if region.free_count >= sc_needed:
                return
