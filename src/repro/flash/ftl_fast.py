"""FAST — a fully-associative log-buffer hybrid FTL [8][9].

Data blocks use block-level mapping; a small pool of log blocks absorbs
overwrites with page-level mapping.  When the log pool is exhausted the
oldest log block is reclaimed by merging.  Two merge flavours are modelled:

* **switch merge** — the log block holds all pages of one logical block in
  offset order, so it simply *becomes* the data block (one erase, zero
  copies).  This is the cheap path that sequential, block-aligned writes
  hit — the mechanism the paper's placement policy is designed to exploit.
* **full merge** — valid pages of every logical block touched by the log
  block are gathered into fresh blocks (expensive; random small writes).
"""

from __future__ import annotations

from collections import OrderedDict, deque

import numpy as np

from repro._hot import HOT
from repro.flash.constants import FlashConfig
from repro.flash.ftl_base import FTL
from repro.flash.nand import PageState

__all__ = ["FastFTL"]

_UNMAPPED = -1


class FastFTL(FTL):
    """Fully-associative sector translation (simplified FAST)."""

    def __init__(self, config: FlashConfig) -> None:
        super().__init__(config)
        ppb = config.pages_per_block
        self.num_lblocks = self.num_lpns // ppb
        spare = config.num_blocks - self.num_lblocks
        if spare < 3:
            raise ValueError(
                "FastFTL needs at least 3 spare blocks beyond logical capacity "
                f"(have {spare}); increase overprovision or num_blocks"
            )
        self.num_log_blocks = max(2, spare - 2)
        self._l2b = np.full(self.num_lblocks, _UNMAPPED, dtype=np.int64)
        # lpn -> ppn of the live copy in the log area (page-level map)
        self._log_map: OrderedDict[int, int] = OrderedDict()
        # log blocks in fill order; the leftmost is the next merge victim
        self._log_blocks: deque[int] = deque()
        self._active_log = self._take_free_block()
        self._log_blocks.append(self._active_log)
        self._mapped = 0

    # -- host operations ----------------------------------------------------

    def read(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        ppn = self._log_map.get(lpn)
        if ppn is None:
            ppb = self.config.pages_per_block
            lbn, off = divmod(lpn, ppb)
            pb = int(self._l2b[lbn])
            if pb != _UNMAPPED:
                data_ppn = pb * ppb + off
                if self.nand.state(data_ppn) == PageState.VALID:
                    self.nand.read_page(data_ppn)
        else:
            self.nand.read_page(ppn)
        self.stats.host_page_reads += 1
        return self.config.read_us

    def write(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        latency = 0.0
        ppb = self.config.pages_per_block
        lbn, off = divmod(lpn, ppb)

        pb = int(self._l2b[lbn])
        if pb == _UNMAPPED and off == 0 and lpn not in self._log_map:
            # First write of a logical block starting at offset 0: open a
            # data block directly (the common bulk-load path).
            pb = self._take_free_block()
            self._l2b[lbn] = pb
            self.nand.program_page_at(pb, off)
            self._mapped += 1
            self.stats.host_page_writes += 1
            return latency + self.config.write_us
        if pb != _UNMAPPED and self.nand.state(pb * ppb + off) == PageState.FREE:
            if self._invalidate_existing(lpn):  # stale copy in the log area
                self._mapped -= 1
            self.nand.program_page_at(pb, off)
            self._mapped += 1
            self.stats.host_page_writes += 1
            return latency + self.config.write_us

        # Otherwise append to the log area.  Space is secured *before* the
        # old copy is invalidated: merging first keeps a fully-sequential
        # victim log block switchable (its pages are all still valid).
        if self.nand.free_pages_in(self._active_log) == 0:
            latency += self._advance_log_block()
        if self._invalidate_existing(lpn):
            self._mapped -= 1
        ppn = self.nand.program_page(self._active_log)
        self._log_map[lpn] = ppn
        self._mapped += 1
        self.stats.host_page_writes += 1
        latency += self.config.write_us
        return latency

    def trim(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        if self._invalidate_existing(lpn):
            self._mapped -= 1
            self.stats.trimmed_pages += 1
        return 0.0

    def mapped_lpn_count(self) -> int:
        return self._mapped

    # -- internals ------------------------------------------------------------

    def _invalidate_existing(self, lpn: int) -> bool:
        """Invalidate any live copy of ``lpn``; return True if one existed."""
        ppn = self._log_map.pop(lpn, None)
        if ppn is not None:
            self.nand.invalidate_page(ppn)
            return True
        ppb = self.config.pages_per_block
        lbn, off = divmod(lpn, ppb)
        pb = int(self._l2b[lbn])
        if pb != _UNMAPPED:
            data_ppn = pb * ppb + off
            if self.nand.state(data_ppn) == PageState.VALID:
                self.nand.invalidate_page(data_ppn)
                return True
        return False

    def _advance_log_block(self) -> float:
        """Open a new active log block, merging the oldest if the pool is full."""
        latency = 0.0
        if len(self._log_blocks) >= self.num_log_blocks:
            latency += self._merge_oldest_log()
        self._active_log = self._take_free_block()
        self._log_blocks.append(self._active_log)
        return latency

    def _log_block_is_switchable(self, log_block: int) -> int:
        """Return the lbn if ``log_block`` can switch-merge, else -1.

        Switchable means: every page is VALID and page i holds offset i of
        one single logical block.
        """
        ppb = self.config.pages_per_block
        lo = log_block * ppb
        reverse: dict[int, int] = {ppn: lpn for lpn, ppn in self._log_map.items()
                                   if lo <= ppn < lo + ppb}
        if len(reverse) != ppb:
            return -1
        lbn = reverse[lo] // ppb
        for i in range(ppb):
            lpn = reverse.get(lo + i)
            if lpn is None or lpn != lbn * ppb + i:
                return -1
        return lbn

    def _merge_oldest_log(self) -> float:
        """Reclaim the oldest log block via switch or full merge."""
        victim = self._log_blocks.popleft()
        ppb = self.config.pages_per_block
        latency = 0.0

        switch_lbn = self._log_block_is_switchable(victim)
        if switch_lbn >= 0:
            # Switch merge: the log block becomes the data block.
            old_pb = int(self._l2b[switch_lbn])
            for i in range(ppb):
                del self._log_map[switch_lbn * ppb + i]
            self._l2b[switch_lbn] = victim
            if old_pb != _UNMAPPED:
                latency += self._discard_block(old_pb)
            self.stats.extra["switch_merges"] = self.stats.extra.get("switch_merges", 0) + 1
            return latency

        # Full merge: rebuild every logical block that has live pages in the victim.
        lo = victim * ppb
        touched = sorted({lpn // ppb for lpn, ppn in self._log_map.items()
                          if lo <= ppn < lo + ppb})
        for lbn in touched:
            latency += self._full_merge_lbn(lbn)
        latency += self._discard_block(victim)
        return latency

    def _full_merge_lbn(self, lbn: int) -> float:
        """Gather the live pages of ``lbn`` from log + data into a fresh block."""
        ppb = self.config.pages_per_block
        latency = 0.0
        new_pb = self._take_free_block()
        old_pb = int(self._l2b[lbn])
        for off in range(ppb):
            lpn = lbn * ppb + off
            src = self._log_map.get(lpn)
            if src is None and old_pb != _UNMAPPED:
                data_ppn = old_pb * ppb + off
                if self.nand.state(data_ppn) == PageState.VALID:
                    src = data_ppn
            if src is None:
                continue
            self.nand.read_page(src)
            self.stats.gc_page_reads += 1
            latency += self.config.read_us
            self.nand.invalidate_page(src)
            self._log_map.pop(lpn, None)
            self.nand.program_page_at(new_pb, off)
            self.stats.gc_page_writes += 1
            latency += self.config.write_us
        if old_pb != _UNMAPPED:
            latency += self._discard_block(old_pb)
        self._l2b[lbn] = new_pb
        self.stats.full_merges += 1
        return latency

    def _discard_block(self, block: int) -> float:
        """Invalidate leftovers, erase ``block`` and return it to the pool."""
        for ppn in self.nand.valid_ppns_in(block):
            # Any page still VALID here is stale (its lpn lives elsewhere).
            self.nand.invalidate_page(ppn)
        self.nand.erase_block(block)
        self._release_block(block)
        self.stats.block_erases += 1
        return self.config.erase_us
