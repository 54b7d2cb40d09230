"""The layered result cache: L1 memory entries, the write buffer, SSD RBs.

Owns the full L1<->L2 flow for query results (Figs. 6a/7a/7b): the
memory result cache, the DRAM write buffer assembling evicted entries
into 128 KB result blocks, the SSD result region (whole RBs for the
cost-based policies, byte-granular extents for the LRU baseline), and
CBSLRU's pinned static results.  Result-block victims come from
:class:`~repro.core.replacement.Replacement` (Fig. 11); life-cycle
changes are announced on the :class:`~repro.core.events.CacheEvents`
bus while it is observed; SSD writes and avoided rewrites are counted
into :class:`~repro.core.stats.CacheStats` here, observed or not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro._row import shape
from repro.core.config import Scheme
from repro.core.entries import CachedResult, EntryState, ResultBlock
from repro.core.events import AdmitEvent, CacheEvents, EvictEvent, FlushEvent, L2VictimEvent
from repro.core.lru import LruList
from repro.core.placement import WriteBuffer
from repro.core.ssd_region import BlockRegion, ByteRegion
from repro.flash.constants import SECTOR_BYTES
from repro.obs.audit import NULL_AUDIT
from repro.obs.tracer import NULL_TRACER

if TYPE_CHECKING:
    from repro.core.config import CacheConfig
    from repro.core.replacement import Replacement
    from repro.core.stats import CacheStats

__all__ = ["ResultCache"]

# Read once: a member read off the Enum class goes through the metaclass.
_NORMAL = EntryState.NORMAL
_REPLACEABLE = EntryState.REPLACEABLE
# The ``result.lookup`` span's attributes (repro._row): closed, or raised out of.
_LOOKUP = shape(("hit_level",))
_NO_ATTRS = shape(())


class ResultCache:
    """Two-level result cache (query management + replacement, result side)."""

    def __init__(
        self,
        config: CacheConfig,
        policy: Replacement,
        clock,
        mem,
        ssd,
        stats: CacheStats,
        events: CacheEvents,
        tracer=NULL_TRACER,
        audit=NULL_AUDIT,
    ) -> None:
        self.config = config
        self.policy = policy
        self.clock = clock
        self.mem = mem
        self.ssd = ssd
        self.stats = stats
        self.events = events
        self.tracer = tracer
        self.audit = audit

        # ---- L1 (memory) ----
        self.l1: LruList[tuple[int, ...], CachedResult] = LruList(config.replace_window)
        self.l1_bytes = 0

        # ---- L2 (SSD) ----
        self.rb_slot_sectors = -(-config.result_entry_bytes // SECTOR_BYTES)
        if config.uses_ssd and policy.cost_based:
            self.region: BlockRegion | None = BlockRegion(
                base_lba=0,
                num_blocks=config.ssd_result_blocks,
                block_bytes=config.block_bytes,
            )
            self.byte_region: ByteRegion | None = None
        elif config.uses_ssd:
            self.region = None
            self.byte_region = ByteRegion(0, config.ssd_result_bytes)
        else:
            self.region = self.byte_region = None

        # Fig. 7a result mapping + Fig. 7b RB mapping.
        self.l2_map: dict[tuple[int, ...], CachedResult] = {}
        self.rb_map: dict[int, ResultBlock] = {}
        self.rb_lru: LruList[int, ResultBlock] = LruList(config.replace_window)
        # LRU baseline keeps per-entry recency instead of per-RB.
        self.l2_lru: LruList[tuple[int, ...], CachedResult] = LruList(config.replace_window)
        # CBSLRU static partition (filled by warmup_static).
        self.static: dict[tuple[int, ...], CachedResult] = {}

        self.write_buffer = WriteBuffer(config.entries_per_rb)
        self._next_rb_id = 0
        # The config is frozen: what it rules out is decided here, once.
        self._ttl_us = config.ttl_us
        self._exclusive = config.scheme is Scheme.EXCLUSIVE
        self._inclusive = config.scheme is Scheme.INCLUSIVE

    def _expired(self, entry) -> bool:
        """The cold form; ``_lookup`` makes the same compare inline."""
        return entry.expired(self.clock.now_us, self.config.ttl_us)

    # ------------------------------------------------------------------
    # Lookup (query management, result side)
    # ------------------------------------------------------------------

    def lookup(self, key: tuple[int, ...]) -> int:
        """Serve a query from the result caches if possible.

        Returns 1 for an L1 hit, 2 for an L2 hit, 0 for a miss.  In the
        dynamic scenario (ttl_us > 0), stale copies are discarded on the
        way down and the query recomputes from fresh index data.
        """
        tracer = self.tracer
        if not tracer.enabled:
            return self._lookup(key)
        # A span at one frame: opened inline (repro.obs.tracer).
        stack = tracer.stack
        parent = stack[-1]
        sid = next(tracer.ids)
        stack.append(sid)
        start = tracer.clock._now_us
        try:
            level = self._lookup(key)
        except BaseException:
            tracer.close(sid, parent, "result.lookup", start, _NO_ATTRS(()))
            raise
        tracer.close(sid, parent, "result.lookup", start, _LOOKUP((level,)))
        return level

    def _lookup(self, key: tuple[int, ...]) -> int:
        # Expiry is ``CachedResult.expired`` inline (ttl 0: nothing expires);
        # the clock is re-read per test, a dropped stale copy can move it.
        ttl = self._ttl_us
        clock = self.clock
        entry = self.l1.get(key)
        if entry is not None:
            if ttl > 0 and clock._now_us - entry.created_us > ttl:
                self.l1.pop(key)
                self.l1_bytes -= entry.nbytes
                if self.events.observed:
                    self.events.evict(EvictEvent(kind="result", key=key, level="l1",
                                                 nbytes=entry.nbytes,
                                                 reason="expired"))
                self.drop_l2(key, trim=True, reason="expired")
                self.stats.expired_results += 1
            else:
                self.l1.touch(key)
                entry.freq += 1
                self.mem.read(0, entry.nbytes)
                self.stats.result_l1_hits += 1
                return 1

        # Entries staged in the write buffer still live in DRAM.
        staged = self.write_buffer.take(key)
        if staged is not None:
            if ttl > 0 and clock._now_us - staged.created_us > ttl:
                self.stats.expired_results += 1
            else:
                staged.freq += 1
                self.mem.read(0, staged.nbytes)
                self.admit_l1(staged, from_lower=True)
                self.stats.result_l1_hits += 1
                return 1

        if not self.config.uses_ssd:
            return 0

        static = self.static.get(key)
        if static is not None and not (
                ttl > 0 and clock._now_us - static.created_us > ttl):
            self.ssd.read(static.lba, static.nbytes)
            static.freq += 1
            copy = CachedResult(query_key=key, nbytes=static.nbytes,
                                freq=static.freq, created_us=static.created_us)
            self.admit_l1(copy, from_lower=True)
            self.stats.result_l2_hits += 1
            return 2

        entry = self.l2_map.get(key)
        if (entry is not None and ttl > 0
                and clock._now_us - entry.created_us > ttl):
            self.drop_l2(key, trim=True, reason="expired")
            self.stats.expired_results += 1
            entry = None
        if entry is not None:
            self.ssd.read(entry.lba, entry.nbytes)
            entry.freq += 1
            copy = CachedResult(query_key=key, nbytes=entry.nbytes,
                                freq=entry.freq, created_us=entry.created_us)
            if self._exclusive:
                self.drop_l2(key, trim=True, reason="exclusive-promote")
            else:
                # Hybrid/inclusive: the SSD copy turns REPLACEABLE but keeps
                # its mapping so a later eviction can skip the rewrite.
                entry.state = _REPLACEABLE
                if entry.rb_id is not None:
                    if entry.slot is not None:
                        # (clearing an already clear bit is a no-op)
                        self.rb_map[entry.rb_id].clear_valid(entry.slot)
                    try:
                        self.rb_lru.touch(entry.rb_id)
                    except KeyError:
                        pass  # an RB still being assembled is not ranked yet
                elif key in self.l2_lru:
                    self.l2_lru.touch(key)
            self.admit_l1(copy, from_lower=True)
            self.stats.result_l2_hits += 1
            return 2
        return 0

    def maybe_refresh_static(self, key: tuple[int, ...], fresh: CachedResult) -> None:
        """Rewrite a stale pinned result with the just-computed data."""
        static = self.static.get(key)
        if static is None or not self._expired(static):
            return
        self.ssd.write(static.lba, static.nbytes)
        static.created_us = fresh.created_us
        self.stats.static_refreshes += 1

    # ------------------------------------------------------------------
    # L1 admission and eviction
    # ------------------------------------------------------------------

    def admit_l1(self, entry: CachedResult, from_lower: bool) -> None:
        """Insert a result entry into the memory result cache."""
        nbytes = entry.nbytes
        budget = self.config.mem_result_bytes
        if nbytes > budget:
            return  # cache too small for even one entry
        events = self.events
        while self.l1_bytes + nbytes > budget:
            _, victim = self.l1.pop_lru()
            self.l1_bytes -= victim.nbytes
            if events.observed:
                events.evict(EvictEvent(kind="result", key=victim.query_key,
                                        level="l1", nbytes=victim.nbytes,
                                        reason="capacity"))
            self._on_evicted(victim)
        self.l1.insert(entry.query_key, entry)
        self.l1_bytes += nbytes
        if events.observed:
            events.admit(AdmitEvent(kind="result", key=entry.query_key,
                                    level="l1", nbytes=nbytes))
        if self._inclusive and not from_lower and self.config.uses_ssd:
            # Write-through: an inclusive L2 always holds what L1 holds.
            self.push_to_l2(entry)

    def _on_evicted(self, victim: CachedResult) -> None:
        key = victim.query_key
        if not self.config.uses_ssd or key in self.static:
            return
        if self._inclusive:
            return  # already written through
        if not self.policy.cost_based:
            self._lru_to_ssd(victim)
            return
        entry = self.l2_map.get(key)
        if entry is not None and entry.state is _REPLACEABLE:
            # Re-validate the REPLACEABLE SSD copy instead of rewriting.
            entry.state = _NORMAL
            entry.freq = max(entry.freq, victim.freq)
            if entry.rb_id is not None:
                self.rb_map[entry.rb_id].set_valid(entry.slot, key)
            self.stats.ssd_writes_avoided += 1
            if self.events.observed:
                self.events.admit(AdmitEvent(kind="result", key=key,
                                             level="l2", nbytes=entry.nbytes,
                                             reason="revalidate"))
            self.write_buffer.dropped_replaceable += 1
            return
        batch = self.write_buffer.add(victim, already_on_ssd=False)
        if batch is not None:
            self._flush_block(batch)

    # ------------------------------------------------------------------
    # L2 result cache (SSD side)
    # ------------------------------------------------------------------

    def push_to_l2(self, entry: CachedResult) -> None:
        """Inclusive-scheme write-through of one result entry."""
        if not self.policy.cost_based:
            self._lru_to_ssd(entry)
        else:
            old = self.l2_map.get(entry.query_key)
            batch = self.write_buffer.add(
                CachedResult(query_key=entry.query_key, nbytes=entry.nbytes,
                             freq=entry.freq, created_us=entry.created_us),
                already_on_ssd=old is not None and old.state is _REPLACEABLE,
            )
            if batch is not None:
                self._flush_block(batch)

    def _flush_block(self, batch: list[CachedResult]) -> None:
        """Assemble a full RB and write it with one sequential block write."""
        cfg = self.config
        rb = self._take_block()
        if rb is None:
            return  # result region has zero capacity
        for slot, entry in enumerate(batch):
            # Drop any stale mapping of the same key elsewhere.
            old = self.l2_map.pop(entry.query_key, None)
            if old is not None and old.rb_id is not None and old.rb_id != rb.rb_id:
                old_rb = self.rb_map.get(old.rb_id)
                if old_rb is not None and old.slot is not None and old_rb.is_valid(old.slot):
                    old_rb.clear_valid(old.slot)
            entry.rb_id = rb.rb_id
            entry.slot = slot
            entry.lba = rb.lba + slot * self.rb_slot_sectors
            entry.state = EntryState.NORMAL
            rb.set_valid(slot, entry.query_key)
            self.l2_map[entry.query_key] = entry
        self.ssd.write(rb.lba, cfg.block_bytes)
        self.stats.ssd_result_writes += 1
        if self.events.observed:
            self.events.flush(FlushEvent(kind="result", lba=rb.lba,
                                         nbytes=cfg.block_bytes,
                                         entries=len(batch)))
        self.rb_lru.insert(rb.rb_id, rb)

    def _take_block(self) -> ResultBlock | None:
        """A free RB, or the policy's victim (Fig. 11: max IREN in the RFR)."""
        cfg = self.config
        region = self.region
        if region is None or region.num_blocks == 0:
            return None
        blocks = region.alloc(1)
        if blocks is not None:
            rb = ResultBlock(
                rb_id=self._next_rb_id,
                lba=region.lba_of(blocks[0]),
                num_slots=cfg.entries_per_rb,
            )
            rb._region_block = blocks[0]  # type: ignore[attr-defined]
            self.rb_map[rb.rb_id] = rb
            self._next_rb_id += 1
            return rb
        victim_id = self.policy.pick_rb_victim(self.rb_lru)
        rb = self.rb_lru.pop(victim_id)
        if self.events.observed:
            self.events.l2_victim(L2VictimEvent(kind="result", key=victim_id,
                                                stage="rb-iren"))
        for slot in range(rb.num_slots):
            key = rb.entries[slot]
            if key is not None:
                stale = self.l2_map.get(key)
                if stale is not None and stale.rb_id == rb.rb_id:
                    del self.l2_map[key]
            rb.entries[slot] = None
        rb.flags = 0
        return rb

    def _lru_to_ssd(self, victim: CachedResult) -> None:
        """Baseline path: write the entry alone at whatever offset fits."""
        region = self.byte_region
        if region is None or region.size_sectors == 0:
            return
        old = self.l2_map.pop(victim.query_key, None)
        if old is not None and old.lba is not None:
            region.free(old.lba, old.nbytes)
            if victim.query_key in self.l2_lru:
                self.l2_lru.pop(victim.query_key)
        lba = region.alloc(victim.nbytes)
        while lba is None and len(self.l2_lru) > 0:
            key, evicted = self.l2_lru.pop_lru()
            self.l2_map.pop(key, None)
            region.free(evicted.lba, evicted.nbytes)
            if self.events.observed:
                self.events.l2_victim(L2VictimEvent(kind="result", key=key,
                                                    stage="lru"))
            lba = region.alloc(victim.nbytes)
        if lba is None:
            return
        victim.lba = lba
        victim.rb_id = None
        victim.slot = None
        victim.state = EntryState.NORMAL
        self.ssd.write(lba, victim.nbytes)
        self.stats.ssd_result_writes += 1
        if self.events.observed:
            self.events.flush(FlushEvent(kind="result", lba=lba,
                                         nbytes=victim.nbytes))
        self.l2_map[victim.query_key] = victim
        self.l2_lru.insert(victim.query_key, victim)

    def drop_l2(self, key: tuple[int, ...], trim: bool,
                reason: str = "invalidate") -> None:
        entry = self.l2_map.pop(key, None)
        if entry is None:
            return
        if entry.rb_id is not None:
            rb = self.rb_map.get(entry.rb_id)
            if rb is not None and entry.slot is not None and rb.is_valid(entry.slot):
                rb.clear_valid(entry.slot)
                rb.entries[entry.slot] = None
        elif entry.lba is not None and self.byte_region is not None:
            self.byte_region.free(entry.lba, entry.nbytes)
            if key in self.l2_lru:
                self.l2_lru.pop(key)
        if trim and entry.lba is not None:
            self.ssd.trim(entry.lba, entry.nbytes)
        if self.events.observed:
            self.events.evict(EvictEvent(kind="result", key=key, level="l2",
                                         nbytes=entry.nbytes, reason=reason))

    # ------------------------------------------------------------------
    # CBSLRU static partition (Section VI.C.2)
    # ------------------------------------------------------------------

    def place_static(self, top_queries: list[tuple[tuple[int, ...], int]]) -> dict:
        """Pin the hottest analysed queries into whole static RBs."""
        cfg = self.config
        placed = 0
        budget = int(cfg.ssd_result_blocks * cfg.static_fraction)
        qi = 0
        for _ in range(budget):
            blocks = self.region.alloc(1)
            if blocks is None:
                break
            lba = self.region.lba_of(blocks[0])
            wrote_any = False
            for slot in range(cfg.entries_per_rb):
                if qi >= len(top_queries):
                    break
                key, freq = top_queries[qi]
                qi += 1
                self.static[key] = CachedResult(
                    query_key=key,
                    nbytes=cfg.result_entry_bytes,
                    freq=freq,
                    lba=lba + slot * self.rb_slot_sectors,
                    state=EntryState.NORMAL,
                    static=True,
                    created_us=self.clock.now_us,
                )
                if self.events.observed:
                    self.events.admit(AdmitEvent(
                        kind="result", key=key, level="static",
                        nbytes=cfg.result_entry_bytes))
                placed += 1
                wrote_any = True
            if wrote_any:
                self.ssd.write(lba, cfg.block_bytes)
            if qi >= len(top_queries):
                break
        return {"static_results": placed, "static_result_blocks_budget": budget}

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        """L1 accounting, capacity, and RB bitmap <-> mapping agreement."""
        cfg = self.config
        l1_bytes = sum(e.nbytes for _, e in self.l1.items_lru_order())
        if l1_bytes != self.l1_bytes:
            raise AssertionError("L1 result byte accounting out of sync")
        if l1_bytes > cfg.mem_result_bytes:
            raise AssertionError("L1 result cache over capacity")

        if not cfg.uses_ssd:
            return

        for rb_id, rb in self.rb_map.items():
            for slot in range(rb.num_slots):
                key = rb.entries[slot]
                if rb.is_valid(slot):
                    entry = self.l2_map.get(key)
                    if entry is None or entry.rb_id != rb_id or entry.slot != slot:
                        raise AssertionError(
                            f"valid RB slot ({rb_id}, {slot}) has no matching "
                            "result mapping"
                        )
        for key, entry in self.l2_map.items():
            if entry.rb_id is not None and entry.state is EntryState.NORMAL:
                rb = self.rb_map.get(entry.rb_id)
                if rb is None or not rb.is_valid(entry.slot):
                    raise AssertionError(
                        f"NORMAL result mapping {key} points at an invalid RB slot"
                    )

    def occupancy(self) -> dict:
        return {
            "l1_result_bytes": self.l1_bytes,
            "l1_results": len(self.l1),
            "l2_results": len(self.l2_map),
            "static_results": len(self.static),
            "write_buffer": len(self.write_buffer),
        }
