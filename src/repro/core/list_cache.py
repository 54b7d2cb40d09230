"""The layered inverted-list cache: L1 prefixes and the SSD list region.

Owns the full L1<->L2 flow for inverted lists (Figs. 6b/7c): the memory
list cache holding frequency-sorted prefixes, the SSD list region (whole
flash blocks sized by Formula 1 for the cost-based policies, byte-granular
extents for the LRU baseline), CBSLRU's pinned static lists, and the HDD
tail reads for whatever the caches do not cover.  Admission decisions
come from the :class:`~repro.core.policies.AdmissionPolicy` (Formula 1/2
plus the TEV filter); victim selection is delegated to the active
:class:`~repro.core.policies.ReplacementPolicy`; life-cycle changes are
announced on the :class:`~repro.core.events.CacheEvents` bus.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.config import Scheme
from repro.core.entries import CachedList, EntryState
from repro.core.events import AdmitEvent, CacheEvents, EvictEvent, FlushEvent, L2VictimEvent
from repro.core.lru import LruList
from repro.core.selection import efficiency_value, ssd_cache_blocks
from repro.core.ssd_region import BlockRegion, ByteRegion
from repro.flash.constants import SECTOR_BYTES
from repro.obs.audit import NULL_AUDIT
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:
    from repro.core.config import CacheConfig
    from repro.core.policies import AdmissionPolicy, ReplacementPolicy
    from repro.core.stats import CacheStats
    from repro.engine.index import InvertedIndex

__all__ = ["ListCache"]


class ListCache:
    """Two-level inverted-list cache (query management, list side)."""

    def __init__(
        self,
        config: CacheConfig,
        policy: ReplacementPolicy,
        selection: AdmissionPolicy,
        index: InvertedIndex,
        clock,
        mem,
        ssd,
        store,
        stats: CacheStats,
        events: CacheEvents,
        tracer=NULL_TRACER,
        audit=NULL_AUDIT,
    ) -> None:
        self.config = config
        self.policy = policy
        self.selection = selection
        self.index = index
        self.clock = clock
        self.mem = mem
        self.ssd = ssd
        self.store = store
        self.stats = stats
        self.events = events
        self.tracer = tracer
        self.audit = audit

        # ---- L1 (memory) ----
        self.l1: LruList[int, CachedList] = LruList(config.replace_window)
        self.l1_bytes = 0

        # ---- L2 (SSD) ---- the list region sits after the result region.
        if config.uses_ssd and policy.cost_based:
            list_base = config.ssd_result_blocks * (config.block_bytes // SECTOR_BYTES)
            self.region: BlockRegion | None = BlockRegion(
                base_lba=list_base,
                num_blocks=config.ssd_list_blocks,
                block_bytes=config.block_bytes,
            )
            self.byte_region: ByteRegion | None = None
        elif config.uses_ssd:
            self.region = None
            list_base = config.ssd_result_bytes // SECTOR_BYTES
            self.byte_region = ByteRegion(list_base, config.ssd_list_bytes)
        else:
            self.region = self.byte_region = None

        # Fig. 7c inverted-list mapping.
        self.l2: LruList[int, CachedList] = LruList(config.replace_window)
        # CBSLRU static partition (filled by warmup_static).
        self.static: dict[int, CachedList] = {}

    def _expired(self, entry) -> bool:
        return entry.expired(self.clock.now_us, self.config.ttl_us)

    # ------------------------------------------------------------------
    # Fetch (query management, list side)
    # ------------------------------------------------------------------

    def fetch(
        self, term_id: int, needed: int, total_bytes: int, pu: float
    ) -> tuple[bool, bool, bool]:
        """Bring the traversed prefix of one list in; returns source flags."""
        tracer = self.tracer
        if not tracer.enabled:
            return self._fetch(term_id, needed, total_bytes, pu)
        with tracer.span("list.fetch", term=term_id, needed=needed) as span:
            flags = self._fetch(term_id, needed, total_bytes, pu)
            span.set(mem=flags[0], ssd=flags[1], hdd=flags[2])
        return flags

    def _fetch(
        self, term_id: int, needed: int, total_bytes: int, pu: float
    ) -> tuple[bool, bool, bool]:
        covered = 0
        src_mem = src_ssd = src_hdd = False

        l1 = self.l1.get(term_id)
        if l1 is not None and self._expired(l1):
            self.l1.pop(term_id)
            self.l1_bytes -= l1.cached_bytes
            self.events.evict(EvictEvent(kind="list", key=term_id, level="l1",
                                         nbytes=l1.cached_bytes, reason="expired"))
            self.drop_l2(term_id, trim=self.policy.trim_on_drop, reason="expired")
            self.stats.expired_lists += 1
            l1 = None
        if l1 is not None:
            self.l1.touch(term_id)
            l1.touch()
            served = min(needed, l1.cached_bytes)
            if served > 0:
                self.mem.read(0, served)
                src_mem = True
                covered = served
            if covered >= needed:
                self.stats.list_l1_hits += 1
                self.admit_l1(term_id, needed, total_bytes, pu, new_access=False)
                return src_mem, src_ssd, src_hdd

        stale_static: CachedList | None = None
        if self.config.uses_ssd:
            l2 = self.static.get(term_id)
            is_static = l2 is not None
            if is_static and self._expired(l2):
                # Pinned data is refreshed in place after the HDD re-read.
                stale_static = l2
                self.stats.expired_lists += 1
                l2 = None
                is_static = False
            if l2 is None and not stale_static:
                l2 = self.l2.get(term_id)
                if l2 is not None and self._expired(l2):
                    self.drop_l2(term_id, trim=self.policy.trim_on_drop,
                                 reason="expired")
                    self.stats.expired_lists += 1
                    l2 = None
            if l2 is not None and l2.cached_bytes > covered:
                take = min(needed, l2.cached_bytes) - covered
                self._read_l2_bytes(l2, covered, take)
                src_ssd = True
                covered += take
                l2.touch()
                if not is_static:
                    self.l2.touch(term_id)
                    if self.config.scheme is Scheme.EXCLUSIVE:
                        self.drop_l2(term_id, trim=True, reason="exclusive-promote")
                    elif self.policy.tracks_replaceable:
                        # The baseline has no replaceable-state tracking:
                        # a read-back entry stays NORMAL and gets fully
                        # rewritten on its next eviction (Section VI.C).
                        l2.state = EntryState.REPLACEABLE

        if covered < needed:
            src_hdd = True
            self._read_store_tail(term_id, needed, covered)
            if covered > 0:
                self.stats.list_partial_hits += 1
            else:
                self.stats.list_misses += 1
        elif src_ssd:
            self.stats.list_l2_hits += 1

        if stale_static is not None and src_hdd:
            # Rewrite the pinned blocks with the fresh data just read.
            for b in stale_static.blocks:
                self.ssd.write(self.region.lba_of(b), self.config.block_bytes)
            stale_static.created_us = self.clock.now_us
            self.stats.static_refreshes += 1

        self.admit_l1(term_id, needed, total_bytes, pu, new_access=l1 is None)
        return src_mem, src_ssd, src_hdd

    def _read_l2_bytes(self, entry: CachedList, offset: int, nbytes: int) -> None:
        """Read ``nbytes`` of a cached list starting at ``offset`` from SSD."""
        sb = self.config.block_bytes
        remaining = nbytes
        pos = offset
        while remaining > 0:
            if entry.blocks:
                blk = entry.blocks[min(pos // sb, len(entry.blocks) - 1)]
                lba = self.region.lba_of(blk) + (pos % sb) // SECTOR_BYTES
            else:
                assert entry.lba_byte is not None, "SSD list entry without placement"
                lba = entry.lba_byte + pos // SECTOR_BYTES
            chunk = min(remaining, sb - (pos % sb))
            self.ssd.read(lba, chunk)
            pos += chunk
            remaining -= chunk

    def _read_store_tail(self, term_id: int, needed: int, covered: int) -> None:
        """Read the uncached tail of a list from the index store (HDD)."""
        reads = self.index.layout.chunk_reads(term_id, needed)
        if not reads:
            return
        base_lba = reads[0][0]  # the first chunk starts at the extent's LBA
        for lba, nbytes in reads:
            # Skip chunks entirely satisfied by the cached prefix.
            if (lba - base_lba) * SECTOR_BYTES + nbytes <= covered:
                continue
            self.store.read(lba, nbytes)

    # ------------------------------------------------------------------
    # L1 admission and eviction
    # ------------------------------------------------------------------

    def admit_l1(
        self, term_id: int, needed: int, total_bytes: int, pu: float, new_access: bool
    ) -> None:
        """Insert/grow a list entry in the memory list cache."""
        cfg = self.config
        chunk = self.index.layout.chunk_bytes
        target = min(total_bytes, -(-needed // chunk) * chunk)
        if target > cfg.mem_list_bytes:
            # A single list larger than the whole cache is clamped to the
            # largest chunk multiple that fits (or skipped entirely).
            target = cfg.mem_list_bytes // chunk * chunk
            if target <= 0:
                return
        existing = self.l1.get(term_id)
        if existing is not None:
            growth = max(0, target - existing.cached_bytes)
            existing.cached_bytes = max(existing.cached_bytes, target)
            # Running means keep PU close to the term's realized behaviour.
            existing.pu += (pu - existing.pu) * 0.2
            existing.mean_needed_bytes += (needed - existing.mean_needed_bytes) * 0.25
            self.l1_bytes += growth
            self.l1.touch(term_id)
        else:
            entry = CachedList(
                term_id=term_id,
                cached_bytes=target,
                total_bytes=total_bytes,
                pu=pu,
                mean_needed_bytes=float(needed),
                created_us=self.clock.now_us,
            )
            self.l1.insert(term_id, entry)
            self.l1_bytes += target
            self.events.admit(AdmitEvent(kind="list", key=term_id, level="l1",
                                         nbytes=target))
            if cfg.scheme is Scheme.INCLUSIVE and cfg.uses_ssd:
                self.push_to_l2(entry)
        if self.l1_bytes > cfg.mem_list_bytes:
            self._evict_to_fit(protect=term_id)

    def _evict_to_fit(self, protect: int | None = None) -> None:
        cfg = self.config
        while self.l1_bytes > cfg.mem_list_bytes and len(self.l1) > 1:
            victim_key = self.policy.pick_l1_list_victim(self.l1, protect, cfg)
            if victim_key is None:
                break
            victim = self.l1.pop(victim_key)
            self.l1_bytes -= victim.cached_bytes
            self.events.evict(EvictEvent(kind="list", key=victim_key, level="l1",
                                         nbytes=victim.cached_bytes,
                                         reason="capacity"))
            self._on_evicted(victim)

    def _on_evicted(self, victim: CachedList) -> None:
        cfg = self.config
        if not cfg.uses_ssd or victim.term_id in self.static:
            return
        if cfg.scheme is Scheme.INCLUSIVE:
            return
        self.push_to_l2(victim)

    # ------------------------------------------------------------------
    # L2 inverted-list cache (SSD side)
    # ------------------------------------------------------------------

    def push_to_l2(self, victim: CachedList) -> None:
        cfg = self.config
        decision = self.selection.select_list(
            si_bytes=victim.cached_bytes, pu=victim.formula1_pu, freq=victim.freq
        )
        if self.audit.enabled:
            # The Formula 1/2 admission verdict with its exact inputs: this
            # is the record `repro explain` reconstructs EV-vs-TEV from.
            self.audit.record(
                "list.select", "list", victim.term_id,
                si_bytes=victim.cached_bytes, pu=victim.formula1_pu,
                freq=victim.freq, sc_blocks=decision.sc_blocks,
                ev=decision.ev, tev=cfg.tev, admit=decision.admit,
                branch="admit" if decision.admit else "tev-discard",
            )
        if not decision.admit:
            self.events.evict(EvictEvent(kind="list", key=victim.term_id,
                                         level="l1", nbytes=victim.cached_bytes,
                                         reason="tev"))
            return
        existing = self.l2.get(victim.term_id)
        if existing is not None:
            covers = existing.cached_bytes >= min(
                victim.total_bytes, decision.sc_blocks * cfg.block_bytes
            )
            if (existing.state is EntryState.REPLACEABLE and covers
                    and self.policy.tracks_replaceable):
                # The data is still on flash: re-validate, skip the write.
                existing.state = EntryState.NORMAL
                existing.freq = max(existing.freq, victim.freq)
                self.l2.touch(victim.term_id)
                self.events.admit(AdmitEvent(kind="list", key=victim.term_id,
                                             level="l2",
                                             nbytes=existing.cached_bytes,
                                             reason="revalidate"))
                return
            self.drop_l2(victim.term_id, trim=self.policy.trim_on_drop,
                         reason="replaced")

        if not self.policy.cost_based:
            self._lru_to_ssd(victim)
        else:
            self._cb_to_ssd(victim, decision.sc_blocks)

    def _cb_to_ssd(self, victim: CachedList, sc_blocks: int) -> None:
        """Cost-based path: whole-block placement with Fig. 13 replacement."""
        cfg = self.config
        region = self.region
        if region is None or sc_blocks == 0 or sc_blocks > region.num_blocks:
            return
        if region.free_count < sc_blocks:
            self.policy.free_list_space(self, sc_blocks)
        blocks = region.alloc(sc_blocks)
        if blocks is None:
            return
        cached = min(victim.total_bytes, sc_blocks * cfg.block_bytes,
                     victim.cached_bytes)
        entry = CachedList(
            term_id=victim.term_id,
            cached_bytes=cached,
            total_bytes=victim.total_bytes,
            pu=victim.pu,
            freq=victim.freq,
            blocks=blocks,
            created_us=victim.created_us,
        )
        for b in blocks:
            self.ssd.write(region.lba_of(b), cfg.block_bytes)
        self.events.flush(FlushEvent(kind="list", lba=region.lba_of(blocks[0]),
                                     nbytes=cached, entries=len(blocks)))
        self.l2.insert(victim.term_id, entry)

    def _lru_to_ssd(self, victim: CachedList) -> None:
        """Baseline path: byte-granular placement, plain LRU eviction."""
        region = self.byte_region
        if region is None or region.size_sectors == 0:
            return
        nbytes = victim.cached_bytes
        if nbytes > region.size_sectors * SECTOR_BYTES:
            return
        lba = region.alloc(nbytes)
        while lba is None and len(self.l2) > 0:
            key, evicted = self.l2.pop_lru()
            region.free(evicted.lba_byte, evicted.cached_bytes)
            self.events.l2_victim(L2VictimEvent(kind="list", key=key, stage="lru"))
            lba = region.alloc(nbytes)
        if lba is None:
            return
        entry = CachedList(
            term_id=victim.term_id,
            cached_bytes=nbytes,
            total_bytes=victim.total_bytes,
            pu=victim.pu,
            freq=victim.freq,
            created_us=victim.created_us,
        )
        entry.lba_byte = lba
        self.ssd.write(lba, nbytes)
        self.events.flush(FlushEvent(kind="list", lba=lba, nbytes=nbytes))
        self.l2.insert(victim.term_id, entry)

    def drop_l2(self, term_id: int, trim: bool, reason: str = "invalidate") -> None:
        entry = self.l2.get(term_id)
        if entry is None:
            return
        self.l2.pop(term_id)
        cfg = self.config
        if entry.blocks:
            region = self.region
            if trim:
                for b in entry.blocks:
                    self.ssd.trim(region.lba_of(b), cfg.block_bytes)
            region.free(entry.blocks)
            entry.blocks = []
        elif entry.lba_byte is not None:
            if trim:
                self.ssd.trim(entry.lba_byte, entry.cached_bytes)
            self.byte_region.free(entry.lba_byte, entry.cached_bytes)
        self.events.evict(EvictEvent(kind="list", key=term_id, level="l2",
                                     nbytes=entry.cached_bytes, reason=reason))

    # ------------------------------------------------------------------
    # CBSLRU static partition (Section VI.C.2)
    # ------------------------------------------------------------------

    def place_static(self, term_freqs: dict[int, int]) -> dict:
        """Pin the highest-EV analysed terms into the static list blocks."""
        cfg = self.config
        placed = 0
        budget = int(cfg.ssd_list_blocks * cfg.static_fraction)
        chunk = self.index.layout.chunk_bytes
        ranked: list[tuple[float, int, int, int]] = []
        for term_id, freq in term_freqs.items():
            if freq < 2:
                continue
            info = self.index.lexicon.term(term_id)
            # Static entries hold the whole expected used prefix: the
            # analysis already tells us what a typical query needs.
            si = min(info.list_bytes,
                     -(-int(info.list_bytes * info.utilization) // chunk) * chunk)
            sc = ssd_cache_blocks(si, 1.0, cfg.block_bytes)
            if sc == 0:
                continue
            ranked.append((efficiency_value(freq, sc), term_id, sc, freq))
        ranked.sort(reverse=True)
        used = 0
        for ev, term_id, sc, freq in ranked:
            if ev < cfg.tev:
                break
            if used + sc > budget:
                continue
            blocks = self.region.alloc(sc)
            if blocks is None:
                break
            info = self.index.lexicon.term(term_id)
            self.static[term_id] = CachedList(
                term_id=term_id,
                cached_bytes=min(info.list_bytes, sc * cfg.block_bytes),
                total_bytes=info.list_bytes,
                pu=info.utilization,
                freq=freq,
                blocks=blocks,
                static=True,
                created_us=self.clock.now_us,
            )
            for b in blocks:
                self.ssd.write(self.region.lba_of(b), cfg.block_bytes)
            self.events.admit(AdmitEvent(kind="list", key=term_id, level="static",
                                         nbytes=sc * cfg.block_bytes))
            used += sc
            placed += 1
        return {
            "static_lists": placed,
            "static_list_blocks": used,
            "static_list_blocks_budget": budget,
        }

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """L1 accounting, capacity, and SSD block-region consistency."""
        cfg = self.config
        l1_bytes = sum(e.cached_bytes for _, e in self.l1.items_lru_order())
        if l1_bytes != self.l1_bytes:
            raise AssertionError("L1 list byte accounting out of sync")
        if l1_bytes > cfg.mem_list_bytes and len(self.l1) > 1:
            raise AssertionError("L1 list cache over capacity")

        if not cfg.uses_ssd:
            return

        # Block-region consistency (cost-based placement).
        if self.region is not None:
            held: list[int] = []
            for _, entry in self.l2.items_lru_order():
                held.extend(entry.blocks)
            for entry in self.static.values():
                held.extend(entry.blocks)
            if len(held) != len(set(held)):
                raise AssertionError("SSD list block allocated twice")
            if len(held) + self.region.free_count > self.region.num_blocks:
                raise AssertionError("SSD list region block count leak")

    def occupancy(self) -> dict:
        return {
            "l1_list_bytes": self.l1_bytes,
            "l1_lists": len(self.l1),
            "l2_lists": len(self.l2),
            "static_lists": len(self.static),
        }
