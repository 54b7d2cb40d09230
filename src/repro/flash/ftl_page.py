"""Page-mapping FTL — the paper's baseline ("ideal page-based FTL" [6]).

Every logical page maps independently to any physical page.  Writes append
to an active block; overwrites invalidate the old physical page.  When the
free-block pool drains to the configured threshold, greedy garbage
collection relocates the valid pages of the victim block and erases it.

The mapping tables are flat numpy arrays (l2p and p2l), so lookups are O(1)
and the memory layout matches what a real controller's SRAM table would be.
As in :mod:`repro.flash.nand`, a span that maps to one contiguous
physical run (or to nothing) is tested and updated through
``memoryview`` objects over those arrays; a scattered span keeps the
numpy path.
"""

from __future__ import annotations

import numpy as np

from repro._hot import HOT
from repro.flash.constants import FlashConfig
from repro.flash.ftl_base import FTL

__all__ = ["PageMappingFTL"]

_UNMAPPED = -1


class PageMappingFTL(FTL):
    """Page-level mapping with greedy garbage collection."""

    def __init__(self, config: FlashConfig) -> None:
        super().__init__(config)
        self._l2p = np.full(self.num_lpns, _UNMAPPED, dtype=np.int64)
        self._p2l = np.full(config.total_pages, _UNMAPPED, dtype=np.int64)
        self._active_block = self._take_free_block()
        self._mapped = 0
        # OOB (out-of-band) metadata, as a real controller writes next to
        # each page: the page's lpn and a monotonically increasing write
        # sequence number.  Unlike _p2l, OOB survives logical invalidation
        # (only an erase clears it) — it is what power-loss recovery scans.
        self._oob_lpn = np.full(config.total_pages, _UNMAPPED, dtype=np.int64)
        self._oob_seq = np.zeros(config.total_pages, dtype=np.int64)
        self._write_seq = 0
        # TRIM journal (real FTLs persist trims in metadata blocks; we
        # model the journal's content, charging nothing extra): the
        # sequence number of each lpn's latest trim, 0 = never trimmed.
        self._trim_seq = np.zeros(self.num_lpns, dtype=np.int64)
        # ramp[i] == i: the NAND array's page index, which also covers the
        # (smaller) logical space.  Span paths compare against / store
        # from slices of it instead of building an np.arange per call.
        self._ramp = self.nand.page_ramp
        # The per-call views (module docstring).  ``_unmapped[:n]`` is n
        # unmapped entries and ``_zero_block`` one erased block's sequence
        # numbers: the sources of every run clear.
        self._l2p_v = memoryview(self._l2p)
        self._p2l_v = memoryview(self._p2l)
        self._oob_lpn_v = memoryview(self._oob_lpn)
        self._oob_seq_v = memoryview(self._oob_seq)
        self._ramp_v = memoryview(self._ramp)
        self._unmapped = memoryview(
            np.full(config.total_pages, _UNMAPPED, dtype=np.int64))
        self._zero_block = memoryview(
            np.zeros(config.pages_per_block, dtype=np.int64))

    # -- host operations ---------------------------------------------------

    def read(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        ppn = self._l2p[lpn]
        if ppn == _UNMAPPED:
            # Reading never-written space: real SSDs return zeros without
            # touching NAND; charge a controller-only cost of one page read
            # so callers still see a bounded, non-zero service time.
            self.stats.host_page_reads += 1
            return self.config.read_us
        self.nand.read_page(int(ppn))
        self.stats.host_page_reads += 1
        return self.config.read_us

    def write(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        latency = 0.0
        old = self._l2p[lpn]
        if old != _UNMAPPED:
            self.nand.invalidate_page(int(old))
            self._p2l[old] = _UNMAPPED
        else:
            self._mapped += 1
        latency += self._ensure_space()
        ppn = self._program_active(lpn)
        self._l2p[lpn] = ppn
        self.stats.host_page_writes += 1
        latency += self.config.write_us
        return latency

    def trim(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        ppn = self._l2p[lpn]
        if ppn == _UNMAPPED:
            return 0.0
        self.nand.invalidate_page(int(ppn))
        self._p2l[ppn] = _UNMAPPED
        self._l2p[lpn] = _UNMAPPED
        self._mapped -= 1
        self.stats.trimmed_pages += 1
        self._write_seq += 1
        self._trim_seq[lpn] = self._write_seq
        return 0.0  # metadata-only; real TRIM cost is deferred to GC savings

    def mapped_lpn_count(self) -> int:
        return self._mapped

    # -- vectorised span operations (hot path for large cache-block I/O) ----

    def read_span(self, lpn_start: int, count: int) -> float:
        """Read ``count`` consecutive logical pages; returns service time."""
        if count <= 0:
            raise ValueError("count must be positive")
        end = lpn_start + count
        if lpn_start < 0 or end > self.num_lpns:
            self._check_lpn(lpn_start)
            self._check_lpn(end - 1)
        HOT.ftl_map_lookups += count
        l2p = self._l2p_v
        p0 = l2p[lpn_start]
        if p0 != _UNMAPPED and l2p[end - 1] - p0 == count - 1 and (
            count == 1 or l2p[lpn_start:end] == self._ramp_v[p0:p0 + count]
        ):
            # One contiguous physical run (every whole-block placement).
            self.nand.read_run(p0, count)
        else:
            ppns = self._l2p[lpn_start:end]
            self.nand.read_pages(ppns[ppns != _UNMAPPED])
        self.stats.host_page_reads += count
        # Multi-channel striping: N pages finish in ceil(N/C) page times.
        return -(-count // self.config.channels) * self.config.read_us

    def write_span(self, lpn_start: int, count: int) -> float:
        """Write ``count`` consecutive logical pages; returns service time.

        Equivalent to ``count`` calls of :meth:`write` but with the
        invalidation, programming and mapping updates done as array
        operations; GC runs between block-sized slices exactly as it
        would between individual writes.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        end = lpn_start + count
        if lpn_start < 0 or end > self.num_lpns:
            self._check_lpn(lpn_start)
            self._check_lpn(end - 1)
        HOT.ftl_map_lookups += count
        l2p = self._l2p_v
        p2l = self._p2l_v
        ramp = self._ramp_v
        unmapped = self._unmapped
        nand = self.nand
        p0 = l2p[lpn_start]
        # A mapped span is one contiguous physical run iff it equals the
        # ramp slice starting at its first ppn.
        if p0 != _UNMAPPED and l2p[end - 1] - p0 == count - 1 and (
            count == 1 or l2p[lpn_start:end] == ramp[p0:p0 + count]
        ):
            # Fully-mapped contiguous span (the shape every whole-block
            # placement produces): the reverse-map clear is a slice store.
            nand.invalidate_run(p0, count)
            p2l[p0:p0 + count] = unmapped[:count]
        elif p0 == _UNMAPPED and l2p[end - 1] == _UNMAPPED and (
            count == 1 or l2p[lpn_start:end] == unmapped[:count]
        ):
            # Fully-unmapped span (what a TRIM of the same placement left).
            self._mapped += count
        else:
            old = self._l2p[lpn_start:end]
            live = old[old != _UNMAPPED]
            if live.size:
                nand.invalidate_pages(live)
                self._p2l[live] = _UNMAPPED
            self._mapped += int(count - live.size)

        config = self.config
        latency = -(-count // config.channels) * config.write_us
        done = 0
        while done < count:
            latency += self._ensure_space()
            room = nand.free_pages_in(self._active_block)
            if room == 0:
                self._active_block = self._take_free_block()
                room = config.pages_per_block
            take = min(room, count - done)
            # Programmed runs are contiguous, so every mapping update is a
            # slice store from the index ramp.
            p0 = nand.program_run_start(self._active_block, take)
            p1 = p0 + take
            s = lpn_start + done
            lpns = ramp[s:s + take]
            p2l[p0:p1] = lpns
            l2p[s:s + take] = ramp[p0:p1]
            self._oob_lpn_v[p0:p1] = lpns
            seq = self._write_seq
            np.add(self._ramp[:take], seq + 1, out=self._oob_seq[p0:p1])
            self._write_seq = seq + take
            done += take
        self.stats.host_page_writes += count
        return latency

    def trim_span(self, lpn_start: int, count: int) -> float:
        """TRIM ``count`` consecutive logical pages."""
        if count <= 0:
            return 0.0
        end = lpn_start + count
        if lpn_start < 0 or end > self.num_lpns:
            self._check_lpn(lpn_start)
            self._check_lpn(end - 1)
        HOT.ftl_map_lookups += count
        l2p = self._l2p_v
        p0 = l2p[lpn_start]
        if p0 != _UNMAPPED and l2p[end - 1] - p0 == count - 1 and (
            count == 1 or l2p[lpn_start:end] == self._ramp_v[p0:p0 + count]
        ):
            # Fully-mapped contiguous span: slice stores on both mapping
            # directions and on the journal.
            self.nand.invalidate_run(p0, count)
            unmapped = self._unmapped[:count]
            self._p2l_v[p0:p0 + count] = unmapped
            l2p[lpn_start:end] = unmapped
            self._mapped -= count
            self.stats.trimmed_pages += count
            self._write_seq += 1
            self._trim_seq[lpn_start:end] = self._write_seq
            return 0.0
        old = self._l2p[lpn_start:end]
        live_mask = old != _UNMAPPED
        live = old[live_mask]
        if live.size:
            self.nand.invalidate_pages(live)
            self._p2l[live] = _UNMAPPED
            old[live_mask] = _UNMAPPED  # writes through the l2p view
            self._mapped -= int(live.size)
            self.stats.trimmed_pages += int(live.size)
            self._write_seq += 1
            self._trim_seq[lpn_start:end][live_mask] = self._write_seq
        return 0.0

    def ppn_of(self, lpn: int) -> int:
        """Current physical page of ``lpn`` (-1 when unmapped). For tests."""
        self._check_lpn(lpn)
        return int(self._l2p[lpn])

    # -- internals -----------------------------------------------------------

    def _program_active(self, lpn: int) -> int:
        """Program the next page of the active block for ``lpn``."""
        if self.nand.free_pages_in(self._active_block) == 0:
            self._active_block = self._take_free_block()
        ppn = self.nand.program_page(self._active_block)
        self._p2l[ppn] = lpn
        self._write_seq += 1
        self._oob_lpn[ppn] = lpn
        self._oob_seq[ppn] = self._write_seq
        return ppn

    def _ensure_space(self) -> float:
        """Run GC until the free pool is above threshold; return GC time in us."""
        free = self._free_blocks
        threshold = self.config.gc_free_block_threshold
        if len(free) >= threshold:
            # Stocked pool (never empty: FlashConfig keeps threshold >= 1):
            # nothing to build, nothing to scan.
            return 0.0
        latency = 0.0
        guard = self.config.num_blocks * 2  # defensive bound; GC must terminate
        while (
            len(free) < threshold
            or (not free and self.nand.free_pages_in(self._active_block) == 0)
        ):
            guard -= 1
            if guard < 0:  # pragma: no cover - invariant violation
                raise RuntimeError("GC failed to reclaim space (livelock)")
            victim = self._gc_victim(self._active_block, "foreground")
            if victim is None:
                break  # nothing reclaimable; pool is as good as it gets
            latency += self._collect(victim)
        return latency

    def _collect(self, victim: int) -> float:
        """Relocate valid pages out of ``victim`` and erase it.

        Equivalent to the per-page read/invalidate/program loop, executed
        as batch array operations: all the victim's valid pages are read
        and invalidated at once, then re-programmed in block-sized chunks
        following the same active-block/free-block allocation order the
        scalar loop would use.  Latency stays ``n*(read+write) + erase``.
        """
        latency = 0.0
        # The per-block counter already knows whether anything is left to
        # copy; a dead victim (every victim, under whole-block placement)
        # goes straight to the erase without a page-state scan.
        n = self.nand.valid_count(victim)
        if n:
            ppns = self.nand.valid_ppn_array(victim)
            assert ppns.size == n, "valid_count out of sync with page states"
            lpns = self._p2l[ppns]
            assert (lpns != _UNMAPPED).all(), "valid page without reverse mapping"
            self.nand.read_pages(ppns)
            self.stats.gc_page_reads += n
            self.nand.invalidate_pages(ppns)
            self._p2l[ppns] = _UNMAPPED
            latency += n * (self.config.read_us + self.config.write_us)
            done = 0
            while done < n:
                room = self.nand.free_pages_in(self._active_block)
                if room == 0:
                    self._active_block = self._take_free_block()
                    room = self.config.pages_per_block
                take = min(room, n - done)
                p0 = self.nand.program_run_start(self._active_block, take)
                p1 = p0 + take
                chunk = lpns[done:done + take]
                self._p2l[p0:p1] = chunk
                self._l2p[chunk] = self._ramp[p0:p1]
                self._oob_lpn[p0:p1] = chunk
                np.add(self._ramp[:take], self._write_seq + 1,
                       out=self._oob_seq[p0:p1])
                self._write_seq += take
                done += take
            self.stats.gc_page_writes += n
        self.nand.erase_block(victim)
        ppb = self.config.pages_per_block
        lo = victim * ppb
        # Erase wipes the block's OOB metadata too.
        self._oob_lpn_v[lo:lo + ppb] = self._unmapped[:ppb]
        self._oob_seq_v[lo:lo + ppb] = self._zero_block
        self._release_block(victim)
        self.stats.block_erases += 1
        latency += self.config.erase_us
        return latency

    def background_collect(self, budget_us: float) -> float:
        """Idle-time garbage collection (Chen et al. [5]: background ops
        vs foreground jobs).

        Reclaims blocks while the device is idle so later foreground
        writes find a stocked free pool instead of paying GC inline.
        Only blocks with invalid pages are touched; stops when the pool
        reaches 4x the GC threshold or the time budget runs out.  Returns
        the idle time consumed.
        """
        if budget_us < 0:
            raise ValueError("budget_us cannot be negative")
        target_free_blocks = 4 * self.config.gc_free_block_threshold
        used = 0.0
        while used < budget_us and self.free_block_count < target_free_blocks:
            victim = self._gc_victim(self._active_block, "background")
            if victim is None:
                break
            # Skip victims that cost more copy-work than they reclaim.
            if self.nand.invalid_count(victim) < self.config.pages_per_block // 8:
                break
            used += self._collect(victim)
        return used

    # -- power-loss recovery ---------------------------------------------------

    def recover_mapping(self) -> np.ndarray:
        """Rebuild the L2P table from OOB metadata (power-loss recovery).

        A controller coming up after sudden power loss scans every
        programmed page's OOB area: for each lpn, the copy with the
        highest write sequence number is current — unless the TRIM
        journal holds a later sequence for that lpn.  Returns the rebuilt
        l2p array without touching the live FTL state.
        """
        rebuilt = np.full(self.num_lpns, _UNMAPPED, dtype=np.int64)
        best_seq = np.zeros(self.num_lpns, dtype=np.int64)
        programmed = np.nonzero(self._oob_lpn != _UNMAPPED)[0]
        for ppn in programmed.tolist():
            lpn = int(self._oob_lpn[ppn])
            seq = int(self._oob_seq[ppn])
            if seq > best_seq[lpn]:
                best_seq[lpn] = seq
                rebuilt[lpn] = ppn
        rebuilt[self._trim_seq > best_seq] = _UNMAPPED
        return rebuilt

    def verify_recovery(self) -> bool:
        """True when OOB-scan recovery reproduces the live mapping."""
        return bool((self.recover_mapping() == self._l2p).all())
