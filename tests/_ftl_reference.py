# The page-mapping FTL `repro.flash.ftl_page` replaced in place: the parent
# commit's `flash/ftl_page.py`, verbatim below (the HOT counter lines aside),
# preceded by what it needs from the parent's `flash/nand.py` (`NandArray`)
# and `flash/ftl_base.py` (`FTL`).  `PageState`, `FtlStats` and
# `FlashConfig` did not change and are imported; of the parent's victim
# policies only greedy is kept, inline (`greedy_victim`).  It is the oracle
# the property in `test_flash_equivalence.py` compares the constant-work FTL
# against with `==` — same latencies, maps, page states, counters and
# recovered mapping after every operation, not close ones.

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.flash.constants import FlashConfig
from repro.flash.ftl_base import FtlStats
from repro.flash.nand import PageState

# ---------------------------------------------------------------------------
# parent flash/nand.py
# ---------------------------------------------------------------------------

# Hot-path constants: accessing an enum member as a class attribute goes
# through the EnumType metaclass __getattr__ on every lookup — measurably
# hot when NAND ops run hundreds of thousands of times per benchmark.
# The state array stores these plain ints; PageState stays the public face.
_FREE = int(PageState.FREE)
_VALID = int(PageState.VALID)
_INVALID = int(PageState.INVALID)


class NandArray:
    """A flat array of erase blocks, each holding ``pages_per_block`` pages.

    Physical page numbers (ppn) are ``block * pages_per_block + offset``.
    The array is purely a state machine — latency accounting lives in the
    FTL/SSD layers so alternative timing models can reuse it.
    """

    def __init__(self, config: FlashConfig) -> None:
        self.config = config
        n_blocks = config.num_blocks
        ppb = config.pages_per_block
        self._state = np.full(n_blocks * ppb, _FREE, dtype=np.uint8)
        # next page offset to program in each block (sequential-program rule)
        self._write_ptr = np.zeros(n_blocks, dtype=np.int32)
        self._valid_count = np.zeros(n_blocks, dtype=np.int32)
        self._invalid_count = np.zeros(n_blocks, dtype=np.int32)
        self.erase_counts = np.zeros(n_blocks, dtype=np.int64)
        self.programs = 0
        self.reads = 0
        self.erases = 0

    # -- geometry helpers --------------------------------------------------

    def block_of(self, ppn: int) -> int:
        return ppn // self.config.pages_per_block

    def offset_of(self, ppn: int) -> int:
        return ppn % self.config.pages_per_block

    def channel_of(self, block: int) -> int:
        """Flash channel serving ``block`` (blocks stripe round-robin)."""
        return block % self.config.channels

    def plane_of(self, block: int) -> int:
        """Plane within the channel serving ``block``."""
        return (block // self.config.channels) % self.config.planes_per_channel

    def _check_ppn(self, ppn: int) -> None:
        if not 0 <= ppn < self.config.total_pages:
            raise IndexError(f"ppn {ppn} out of range [0, {self.config.total_pages})")

    # -- state queries -----------------------------------------------------

    def state(self, ppn: int) -> PageState:
        self._check_ppn(ppn)
        return PageState(self._state[ppn])

    def valid_count(self, block: int) -> int:
        return int(self._valid_count[block])

    def invalid_count(self, block: int) -> int:
        return int(self._invalid_count[block])

    def free_pages_in(self, block: int) -> int:
        return self.config.pages_per_block - int(self._write_ptr[block])

    def is_block_free(self, block: int) -> bool:
        """True when the block has never been programmed since its last erase."""
        return self._write_ptr[block] == 0

    @property
    def valid_counts(self) -> np.ndarray:
        """Per-block valid-page counts (read-only view for victim policies)."""
        return self._valid_count

    @property
    def invalid_counts(self) -> np.ndarray:
        return self._invalid_count

    @property
    def write_ptrs(self) -> np.ndarray:
        return self._write_ptr

    # -- operations ----------------------------------------------------------

    def read_page(self, ppn: int) -> None:
        """Read a page.  Reading FREE pages is rejected — it indicates an FTL bug."""
        self._check_ppn(ppn)
        if self._state[ppn] == _FREE:
            raise RuntimeError(f"read of unwritten (FREE) page ppn={ppn}")
        self.reads += 1

    def program_page(self, block: int) -> int:
        """Program the next sequential page of ``block``; return its ppn.

        Raises if the block is full — callers must allocate a new active
        block instead.
        """
        ptr = int(self._write_ptr[block])
        if ptr >= self.config.pages_per_block:
            raise RuntimeError(f"program on full block {block}")
        ppn = block * self.config.pages_per_block + ptr
        assert self._state[ppn] == _FREE, "sequential-program invariant broken"
        self._state[ppn] = _VALID
        self._write_ptr[block] = ptr + 1
        self._valid_count[block] += 1
        self.programs += 1
        return ppn

    def program_page_at(self, block: int, offset: int) -> int:
        """Program the page at a fixed ``offset`` of ``block``; return its ppn.

        Block-mapped and hybrid FTLs place pages at offsets equal to their
        logical in-block offset, which requires out-of-order programming —
        permitted on the SLC parts assumed by that literature [7].  After
        this call ``_write_ptr`` counts *programmed pages*, so a block must
        not mix :meth:`program_page` and :meth:`program_page_at`.
        """
        if not 0 <= offset < self.config.pages_per_block:
            raise IndexError(f"offset {offset} out of range")
        ppn = block * self.config.pages_per_block + offset
        if self._state[ppn] != _FREE:
            raise RuntimeError(f"program of non-FREE page ppn={ppn}")
        self._state[ppn] = _VALID
        self._write_ptr[block] += 1
        self._valid_count[block] += 1
        self.programs += 1
        return ppn

    def program_run_start(self, block: int, count: int) -> int:
        """Program ``count`` sequential pages of ``block``; return the
        first ppn (the run is ``[start, start + count)``).

        The slice-returning form of :meth:`program_run`, for callers that
        exploit the run's contiguity with slice assignments.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        ptr = int(self._write_ptr[block])
        if ptr + count > self.config.pages_per_block:
            raise RuntimeError(f"program_run overflows block {block}")
        lo = block * self.config.pages_per_block + ptr
        self._state[lo:lo + count] = _VALID
        self._write_ptr[block] = ptr + count
        self._valid_count[block] += count
        self.programs += count
        return lo

    def program_run(self, block: int, count: int) -> np.ndarray:
        """Program ``count`` sequential pages of ``block``; return their ppns.

        Vectorised batch variant of :meth:`program_page` for span writes.
        """
        lo = self.program_run_start(block, count)
        return np.arange(lo, lo + count, dtype=np.int64)

    def invalidate_run(self, start: int, count: int) -> None:
        """Invalidate ``count`` contiguous VALID pages starting at ``start``.

        The contiguous-run form of :meth:`invalidate_pages`: state flips
        are slice stores and per-block counts are scalar arithmetic, with
        no gather/scatter or bincount.  Whole-block cache placements make
        this the dominant invalidation shape.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        end = start + count - 1
        if not (0 <= start and end < self.config.total_pages):
            raise IndexError(f"run [{start}, {end}] out of range")
        sl = self._state[start:start + count]
        if (sl != _VALID).any():
            raise RuntimeError("invalidate_run on non-VALID page(s)")
        sl[:] = _INVALID
        ppb = self.config.pages_per_block
        first_b = start // ppb
        last_b = end // ppb
        if first_b == last_b:
            self._valid_count[first_b] -= count
            self._invalid_count[first_b] += count
            return
        for blk in range(first_b, last_b + 1):
            lo = max(start, blk * ppb)
            hi = min(end + 1, (blk + 1) * ppb)
            n = hi - lo
            self._valid_count[blk] -= n
            self._invalid_count[blk] += n

    def invalidate_pages(self, ppns: np.ndarray) -> None:
        """Vectorised invalidate of many VALID pages (may repeat blocks)."""
        n = int(ppns.size)
        if n == 0:
            return
        p0 = int(ppns[0])
        if int(ppns[-1]) - p0 == n - 1 and (
            n == 1 or np.array_equal(ppns, np.arange(p0, p0 + n, dtype=ppns.dtype))
        ):
            # Contiguous ascending run (block-aligned placements produce
            # these almost exclusively): slice stores beat fancy indexing.
            self.invalidate_run(p0, n)
            return
        if (self._state[ppns] != _VALID).any():
            raise RuntimeError("invalidate_pages on non-VALID page(s)")
        self._state[ppns] = _INVALID
        blocks = ppns // self.config.pages_per_block
        # bincount beats ufunc.at for the small repeat-heavy block lists
        # GC and trims produce.
        per_block = np.bincount(blocks)
        self._valid_count[: per_block.size] -= per_block
        self._invalid_count[: per_block.size] += per_block

    def read_pages(self, ppns: np.ndarray) -> None:
        """Vectorised read of many non-FREE pages."""
        if ppns.size == 0:
            return
        if (self._state[ppns] == _FREE).any():
            raise RuntimeError("read of unwritten (FREE) page in span")
        self.reads += int(ppns.size)

    def invalidate_page(self, ppn: int) -> None:
        """Mark a VALID page INVALID (e.g. its logical page was overwritten)."""
        self._check_ppn(ppn)
        if self._state[ppn] != _VALID:
            raise RuntimeError(f"invalidate of non-VALID page ppn={ppn} "
                               f"(state={PageState(self._state[ppn]).name})")
        block = self.block_of(ppn)
        self._state[ppn] = _INVALID
        self._valid_count[block] -= 1
        self._invalid_count[block] += 1

    def erase_block(self, block: int) -> None:
        """Erase a whole block: all pages return to FREE, wear count +1.

        Erasing a block that still holds VALID pages is rejected; the FTL
        must migrate them first.
        """
        if not 0 <= block < self.config.num_blocks:
            raise IndexError(f"block {block} out of range")
        if self._valid_count[block] != 0:
            raise RuntimeError(
                f"erase of block {block} with {self._valid_count[block]} valid pages"
            )
        lo = block * self.config.pages_per_block
        hi = lo + self.config.pages_per_block
        self._state[lo:hi] = _FREE
        self._write_ptr[block] = 0
        self._invalid_count[block] = 0
        self.erase_counts[block] += 1
        self.erases += 1

    def valid_ppns_in(self, block: int) -> list[int]:
        """Physical page numbers of all VALID pages in ``block``."""
        return self.valid_ppn_array(block).tolist()

    def valid_ppn_array(self, block: int) -> np.ndarray:
        """Ascending ppns of all VALID pages in ``block`` (batch GC path)."""
        lo = block * self.config.pages_per_block
        hi = lo + self.config.pages_per_block
        return lo + np.nonzero(self._state[lo:hi] == _VALID)[0]

    def check_invariants(self) -> None:
        """Verify the state arrays agree (used by property tests)."""
        ppb = self.config.pages_per_block
        states = self._state.reshape(self.config.num_blocks, ppb)
        valid = (states == _VALID).sum(axis=1)
        invalid = (states == _INVALID).sum(axis=1)
        used = (states != _FREE).sum(axis=1)
        if not np.array_equal(valid, self._valid_count):
            raise AssertionError("valid_count out of sync with page states")
        if not np.array_equal(invalid, self._invalid_count):
            raise AssertionError("invalid_count out of sync with page states")
        if not np.array_equal(used, self._write_ptr):
            raise AssertionError("write pointers out of sync with page states")


# ---------------------------------------------------------------------------
# parent flash/ftl_base.py
# ---------------------------------------------------------------------------

def greedy_victim(nand, candidates: np.ndarray) -> int:
    """Greedy GC over a non-empty candidate array: the block with the
    fewest valid pages, ties to the lowest (``argmin`` takes the first)."""
    return int(candidates[nand.valid_counts[candidates].argmin()])


#: Candidate scores kept per audited GC decision (the full candidate set
#: can be thousands of blocks; the trail keeps the head plus the choice).
_AUDIT_SCORE_CAP = 16


class FTL(ABC):
    """Base class: owns the NAND array, free-block pool and GC plumbing."""

    #: Optional decision audit log (repro.obs.audit), attached by the SSD
    #: front-end / storage hierarchy.  None keeps the GC path free of any
    #: observability dependency — same contract as the device tracer.
    audit = None
    #: Device name stamped into audit records (set alongside ``audit``).
    audit_device = ""

    def __init__(self, config: FlashConfig) -> None:
        self.config = config
        self.nand = NandArray(config)
        self.stats = FtlStats()
        self.num_lpns = config.logical_pages
        # Free-block pool: every block starts free.
        self._free_blocks: list[int] = list(range(config.num_blocks - 1, -1, -1))

    # -- host interface ------------------------------------------------------

    @abstractmethod
    def read(self, lpn: int) -> float:
        """Read one logical page; return service time in us."""

    @abstractmethod
    def write(self, lpn: int) -> float:
        """Write one logical page; return service time in us."""

    @abstractmethod
    def trim(self, lpn: int) -> float:
        """Discard one logical page (TRIM); return service time in us."""

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.num_lpns:
            raise IndexError(f"lpn {lpn} out of range [0, {self.num_lpns})")

    # -- free-block pool -------------------------------------------------------

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks)

    def _take_free_block(self) -> int:
        if not self._free_blocks:
            raise RuntimeError(
                "NAND out of free blocks — over-provisioning too small or GC broken"
            )
        return self._free_blocks.pop()

    def _release_block(self, block: int) -> None:
        self._free_blocks.append(block)

    def _choose_victim(self, candidates: np.ndarray, origin: str) -> int:
        """Greedy victim selection, auditing the choice.

        ``origin`` distinguishes foreground GC (inline with a host write)
        from background reclamation.
        """
        victim = greedy_victim(self.nand, candidates)
        audit = self.audit
        if audit is not None:
            scores = [
                [int(b), int(self.nand.valid_counts[b])]
                for b in candidates[:_AUDIT_SCORE_CAP].tolist()
            ]
            audit.record(
                "gc.victim", "gc", int(victim),
                device=self.audit_device,
                policy="GreedyVictimPolicy",
                origin=origin,
                candidates=int(candidates.size),
                valid_pages=int(self.nand.valid_counts[victim]),
                scores=scores,
            )
        return victim

    def _gc_candidates(self, exclude: set[int]) -> np.ndarray:
        """Fully- or partially-written blocks eligible as GC victims."""
        # Only blocks with at least one invalid page are worth reclaiming;
        # one boolean mask over the per-block count vectors replaces the
        # old np.isin scan (exclude is a handful of active blocks).
        mask = (self.nand.write_ptrs > 0) & (self.nand.invalid_counts > 0)
        for b in exclude:
            mask[b] = False
        return np.nonzero(mask)[0]

    # -- reporting ---------------------------------------------------------------

    @property
    def erase_count_total(self) -> int:
        return int(self.nand.erase_counts.sum())

    def utilization(self) -> float:
        """Fraction of logical pages currently mapped (0..1)."""
        return self.mapped_lpn_count() / self.num_lpns

    @abstractmethod
    def mapped_lpn_count(self) -> int:
        """Number of logical pages with live data."""


# ---------------------------------------------------------------------------
# parent flash/ftl_page.py
# ---------------------------------------------------------------------------

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
        # model the journal's content, charging nothing extra).
        self._trim_journal: dict[int, int] = {}

    # -- host operations ---------------------------------------------------

    def read(self, lpn: int) -> float:
        self._check_lpn(lpn)
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
        ppn = self._l2p[lpn]
        if ppn == _UNMAPPED:
            return 0.0
        self.nand.invalidate_page(int(ppn))
        self._p2l[ppn] = _UNMAPPED
        self._l2p[lpn] = _UNMAPPED
        self._mapped -= 1
        self.stats.trimmed_pages += 1
        self._write_seq += 1
        self._trim_journal[lpn] = self._write_seq
        return 0.0  # metadata-only; real TRIM cost is deferred to GC savings

    def mapped_lpn_count(self) -> int:
        return self._mapped

    # -- vectorised span operations (hot path for large cache-block I/O) ----

    def read_span(self, lpn_start: int, count: int) -> float:
        """Read ``count`` consecutive logical pages; returns service time."""
        if count <= 0:
            raise ValueError("count must be positive")
        self._check_lpn(lpn_start)
        self._check_lpn(lpn_start + count - 1)
        ppns = self._l2p[lpn_start:lpn_start + count]
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
        self._check_lpn(lpn_start)
        self._check_lpn(lpn_start + count - 1)
        old = self._l2p[lpn_start:lpn_start + count]
        p0 = int(old[0])
        if p0 != _UNMAPPED and int(old[-1]) - p0 == count - 1 and (
            count == 1 or np.array_equal(old, np.arange(p0, p0 + count))
        ):
            # Fully-mapped contiguous span (the shape every whole-block
            # placement produces): the reverse-map clear is a slice store.
            self.nand.invalidate_run(p0, count)
            self._p2l[p0:p0 + count] = _UNMAPPED
        else:
            live = old[old != _UNMAPPED]
            if live.size:
                self.nand.invalidate_pages(live)
                self._p2l[live] = _UNMAPPED
            self._mapped += int(count - live.size)

        latency = -(-count // self.config.channels) * self.config.write_us
        done = 0
        while done < count:
            latency += self._ensure_space()
            room = self.nand.free_pages_in(self._active_block)
            if room == 0:
                self._active_block = self._take_free_block()
                room = self.config.pages_per_block
            take = min(room, count - done)
            # Programmed runs are contiguous, so every mapping update is a
            # slice assignment rather than fancy indexing.
            p0 = self.nand.program_run_start(self._active_block, take)
            s = lpn_start + done
            self._p2l[p0:p0 + take] = np.arange(s, s + take, dtype=np.int64)
            self._l2p[s:s + take] = np.arange(p0, p0 + take, dtype=np.int64)
            self._oob_lpn[p0:p0 + take] = self._p2l[p0:p0 + take]
            self._oob_seq[p0:p0 + take] = np.arange(
                self._write_seq + 1, self._write_seq + 1 + take
            )
            self._write_seq += take
            done += take
        self.stats.host_page_writes += count
        return latency

    def trim_span(self, lpn_start: int, count: int) -> float:
        """TRIM ``count`` consecutive logical pages."""
        if count <= 0:
            return 0.0
        self._check_lpn(lpn_start)
        self._check_lpn(lpn_start + count - 1)
        old = self._l2p[lpn_start:lpn_start + count]
        p0 = int(old[0])
        if p0 != _UNMAPPED and int(old[-1]) - p0 == count - 1 and (
            count == 1 or np.array_equal(old, np.arange(p0, p0 + count))
        ):
            # Fully-mapped contiguous span: slice stores on both mapping
            # directions, journal keys enumerated without a mask scan.
            self.nand.invalidate_run(p0, count)
            self._p2l[p0:p0 + count] = _UNMAPPED
            old[:] = _UNMAPPED  # writes through the l2p view
            self._mapped -= count
            self.stats.trimmed_pages += count
            self._write_seq += 1
            self._trim_journal.update(dict.fromkeys(
                range(lpn_start, lpn_start + count), self._write_seq))
            return 0.0
        live_mask = old != _UNMAPPED
        live = old[live_mask]
        if live.size:
            self.nand.invalidate_pages(live)
            self._p2l[live] = _UNMAPPED
            old[live_mask] = _UNMAPPED  # writes through the l2p view
            self._mapped -= int(live.size)
            self.stats.trimmed_pages += int(live.size)
            self._write_seq += 1
            journaled = (np.nonzero(live_mask)[0] + lpn_start).tolist()
            self._trim_journal.update(
                dict.fromkeys(journaled, self._write_seq))
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
        latency = 0.0
        guard = self.config.num_blocks * 2  # defensive bound; GC must terminate
        while (
            self.free_block_count < self.config.gc_free_block_threshold
            or (self.free_block_count == 0
                and self.nand.free_pages_in(self._active_block) == 0)
        ):
            guard -= 1
            if guard < 0:  # pragma: no cover - invariant violation
                raise RuntimeError("GC failed to reclaim space (livelock)")
            candidates = self._gc_candidates(exclude={self._active_block})
            if candidates.size == 0:
                break  # nothing reclaimable; pool is as good as it gets
            victim = self._choose_victim(candidates, origin="foreground")
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
        ppns = self.nand.valid_ppn_array(victim)
        n = int(ppns.size)
        if n:
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
                chunk = lpns[done:done + take]
                self._p2l[p0:p0 + take] = chunk
                self._l2p[chunk] = np.arange(p0, p0 + take, dtype=np.int64)
                self._oob_lpn[p0:p0 + take] = chunk
                self._oob_seq[p0:p0 + take] = np.arange(
                    self._write_seq + 1, self._write_seq + 1 + take
                )
                self._write_seq += take
                done += take
            self.stats.gc_page_writes += n
        self.nand.erase_block(victim)
        lo = victim * self.config.pages_per_block
        hi = lo + self.config.pages_per_block
        self._oob_lpn[lo:hi] = _UNMAPPED  # erase wipes OOB metadata too
        self._oob_seq[lo:hi] = 0
        self._release_block(victim)
        self.stats.block_erases += 1
        latency += self.config.erase_us
        return latency

    def background_collect(
        self, budget_us: float, target_free_blocks: int | None = None
    ) -> float:
        """Idle-time garbage collection (Chen et al. [5]: background ops
        vs foreground jobs).

        Reclaims blocks while the device is idle so later foreground
        writes find a stocked free pool instead of paying GC inline.
        Only blocks with invalid pages are touched; stops when the pool
        reaches ``target_free_blocks`` (default 4x the GC threshold) or
        the time budget runs out.  Returns the idle time consumed.
        """
        if budget_us < 0:
            raise ValueError("budget_us cannot be negative")
        if target_free_blocks is None:
            target_free_blocks = 4 * self.config.gc_free_block_threshold
        used = 0.0
        while used < budget_us and self.free_block_count < target_free_blocks:
            candidates = self._gc_candidates(exclude={self._active_block})
            if candidates.size == 0:
                break
            victim = self._choose_victim(candidates, origin="background")
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
        for lpn, trim_seq in self._trim_journal.items():
            if rebuilt[lpn] != _UNMAPPED and trim_seq > best_seq[lpn]:
                rebuilt[lpn] = _UNMAPPED
        return rebuilt

    def verify_recovery(self) -> bool:
        """True when OOB-scan recovery reproduces the live mapping."""
        return bool(np.array_equal(self.recover_mapping(), self._l2p))
