"""DFTL — demand-based page-level mapping [10].

Page-level mapping whose full table lives *in flash* as translation pages;
only a small Cached Mapping Table (CMT) is held in controller SRAM.  CMT
misses cost a translation-page read; evicting a dirty CMT entry costs a
translation-page read-modify-write.  Garbage collection relocates data and
translation pages alike.

Simulator note: a shadow in-memory l2p array keeps the *semantics* exact,
while translation I/O is charged according to the CMT/GTD protocol — the
standard approach for trace-driven DFTL studies.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro._hot import HOT
from repro.flash.constants import FlashConfig
from repro.flash.ftl_base import FTL

__all__ = ["DFTL"]

_UNMAPPED = -1


class DFTL(FTL):
    """Demand-based FTL with a cached mapping table.

    Parameters
    ----------
    cmt_entries:
        Capacity of the SRAM-resident cached mapping table, in entries.
    """

    #: bytes per mapping entry in a translation page (4 B lpn + 4 B ppn)
    ENTRY_BYTES = 8

    def __init__(self, config: FlashConfig, cmt_entries: int = 4096) -> None:
        super().__init__(config)
        if cmt_entries < 1:
            raise ValueError("cmt_entries must be >= 1")
        self.cmt_entries = cmt_entries
        self.entries_per_tpage = config.page_bytes // self.ENTRY_BYTES
        self.num_tpages = -(-self.num_lpns // self.entries_per_tpage)
        # Shadow of the full on-flash mapping (semantics source of truth).
        self._l2p = np.full(self.num_lpns, _UNMAPPED, dtype=np.int64)
        # p2l: data pages store lpn >= 0; translation pages store -(tvpn + 2).
        self._p2l = np.full(config.total_pages, _UNMAPPED, dtype=np.int64)
        # Global Translation Directory: tvpn -> ppn of its translation page.
        self._gtd: dict[int, int] = {}
        # Cached Mapping Table: lpn -> dirty flag (ppn read from shadow).
        self._cmt: OrderedDict[int, bool] = OrderedDict()
        self._active_block = self._take_free_block()
        self._mapped = 0
        self._in_gc = False  # suppresses recursive GC from translation flushes
        #: tvpns flushed by the GC a foreground flush ran to make room
        self._gc_flushed: set[int] = set()

    # -- host operations -----------------------------------------------------

    def read(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        latency = self._ensure_cmt(lpn)
        ppn = int(self._l2p[lpn])
        if ppn != _UNMAPPED:
            self.nand.read_page(ppn)
        self.stats.host_page_reads += 1
        return latency + self.config.read_us

    def write(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        latency = self._ensure_cmt(lpn)
        old = int(self._l2p[lpn])
        if old != _UNMAPPED:
            self.nand.invalidate_page(old)
            self._p2l[old] = _UNMAPPED
        else:
            self._mapped += 1
        latency += self._ensure_space()
        ppn = self._program_active(lpn)
        self._l2p[lpn] = ppn
        self._cmt[lpn] = True  # dirty
        self._cmt.move_to_end(lpn)
        self.stats.host_page_writes += 1
        return latency + self.config.write_us

    def trim(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        ppn = int(self._l2p[lpn])
        if ppn == _UNMAPPED:
            return 0.0
        latency = self._ensure_cmt(lpn)
        self.nand.invalidate_page(ppn)
        self._p2l[ppn] = _UNMAPPED
        self._l2p[lpn] = _UNMAPPED
        self._cmt[lpn] = True
        self._mapped -= 1
        self.stats.trimmed_pages += 1
        return latency

    def mapped_lpn_count(self) -> int:
        return self._mapped

    @property
    def cmt_size(self) -> int:
        return len(self._cmt)

    # -- CMT / translation-page protocol ----------------------------------------

    def _tvpn_of(self, lpn: int) -> int:
        return lpn // self.entries_per_tpage

    def _ensure_cmt(self, lpn: int) -> float:
        """Bring ``lpn``'s mapping into the CMT; return translation I/O time."""
        if lpn in self._cmt:
            self._cmt.move_to_end(lpn)
            return 0.0
        latency = 0.0
        if len(self._cmt) >= self.cmt_entries:
            latency += self._evict_cmt_entry()
        # Fetch the entry from its translation page (if one exists yet).
        tvpn = self._tvpn_of(lpn)
        if tvpn in self._gtd:
            self.nand.read_page(self._gtd[tvpn])
            self.stats.translation_page_reads += 1
            latency += self.config.read_us
        self._cmt[lpn] = False  # clean
        return latency

    def _evict_cmt_entry(self) -> float:
        """Evict the LRU CMT entry, flushing its translation page if dirty."""
        victim_lpn, dirty = self._cmt.popitem(last=False)
        if not dirty:
            return 0.0
        return self._flush_translation_page(self._tvpn_of(victim_lpn))

    def _flush_translation_page(self, tvpn: int) -> float:
        """Read-modify-write translation page ``tvpn``.

        Also clears the dirty bit of every other cached entry belonging to
        the same translation page (batch update — DFTL's key optimisation).
        Room is made before the old page is read: foreground GC can
        relocate a data page of ``tvpn`` that is not in the CMT and flush
        ``tvpn`` itself, which moves ``_gtd[tvpn]``.  That flush wrote
        the page from the shadow map, the evicted entry included, so the
        page is current and is not written again.  (GC *relocating* the
        page copies its old content: that is not a flush.)
        """
        if self._in_gc:
            self._gc_flushed.add(tvpn)
            latency = 0.0
        else:
            self._gc_flushed.clear()
            latency = self._ensure_space()
            if tvpn in self._gc_flushed:
                return latency
        old = self._gtd.get(tvpn)
        if old is not None:
            self.nand.read_page(old)
            self.stats.translation_page_reads += 1
            latency += self.config.read_us
            self.nand.invalidate_page(old)
            self._p2l[old] = _UNMAPPED
        ppn = self._program_active(-(tvpn + 2))
        self._gtd[tvpn] = ppn
        self.stats.translation_page_writes += 1
        latency += self.config.write_us
        lo = tvpn * self.entries_per_tpage
        hi = lo + self.entries_per_tpage
        for lpn in list(self._cmt):
            if lo <= lpn < hi:
                self._cmt[lpn] = False
        return latency

    # -- space management ------------------------------------------------------

    def _program_active(self, tag: int) -> int:
        """Program the next active page; ``tag`` is the p2l encoding."""
        if self.nand.free_pages_in(self._active_block) == 0:
            self._active_block = self._take_free_block()
        ppn = self.nand.program_page(self._active_block)
        self._p2l[ppn] = tag
        return ppn

    def _ensure_space(self) -> float:
        latency = 0.0
        guard = self.config.num_blocks * 2
        while self.free_block_count < self.config.gc_free_block_threshold:
            guard -= 1
            if guard < 0:  # pragma: no cover
                raise RuntimeError("DFTL GC livelock")
            victim = self._gc_victim(self._active_block, "foreground")
            if victim is None:
                break
            latency += self._collect(victim)
        return latency

    def _collect(self, victim: int) -> float:
        latency = 0.0
        self._in_gc = True
        # Translation updates for relocated data pages are batched per
        # translation page (DFTL's lazy-copying optimisation): one RMW per
        # affected tvpn, not one per page.
        touched_tvpns: set[int] = set()
        for ppn in self.nand.valid_ppns_in(victim):
            tag = int(self._p2l[ppn])
            self.nand.read_page(ppn)
            self.stats.gc_page_reads += 1
            latency += self.config.read_us
            self.nand.invalidate_page(ppn)
            self._p2l[ppn] = _UNMAPPED
            new_ppn = self._program_active(tag)
            self.stats.gc_page_writes += 1
            latency += self.config.write_us
            if tag <= -2:
                # Relocated a translation page: SRAM-resident GTD update.
                self._gtd[-(tag + 2)] = new_ppn
            else:
                self._l2p[tag] = new_ppn
                if tag in self._cmt:
                    self._cmt[tag] = True
                else:
                    touched_tvpns.add(self._tvpn_of(tag))
        self.nand.erase_block(victim)
        self._release_block(victim)
        self.stats.block_erases += 1
        latency += self.config.erase_us
        for tvpn in touched_tvpns:
            latency += self._flush_translation_page(tvpn)
        self._in_gc = False
        return latency
