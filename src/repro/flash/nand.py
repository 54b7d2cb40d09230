"""Physical NAND array model.

Enforces the invariants FTLs must respect:

* a page can only be **programmed** when FREE (erase-before-write);
* pages within a block are programmed **sequentially** (NAND constraint);
* **erase** operates on whole blocks and increments the block's wear count.

The array tracks page states and per-block valid/invalid counts with numpy
arrays so garbage-collection victim scans stay O(num_blocks) vectorised
operations instead of Python loops, and keeps the set of *dead* blocks
(no valid page, some invalid page) current at every count change, so the
greedy victim — a dead block whenever one exists — needs no scan at all.

Per-call work — one page, one block's counters, one contiguous run — goes
through ``memoryview`` objects over those same arrays: an item or a slice
of a view costs a fraction of a numpy scalar index or a numpy slice, and
a view shares its array's buffer, so every numpy reader (GC copy-back,
:meth:`NandArray.check_invariants`, the wear gauges) sees each write.
Numpy stays for bulk work over scattered pages and whole-array scans.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from repro.flash.constants import FlashConfig

__all__ = ["PageState", "NandArray"]


class PageState(IntEnum):
    """Lifecycle of a physical page: FREE -> VALID -> INVALID -> (erase) FREE."""

    FREE = 0
    VALID = 1
    INVALID = 2


# Hot-path constants: accessing an enum member as a class attribute goes
# through the EnumType metaclass __getattr__ on every lookup — measurably
# hot when NAND ops run hundreds of thousands of times per benchmark.
# The state array stores these plain ints; PageState stays the public face.
_FREE = int(PageState.FREE)
_VALID = int(PageState.VALID)
_INVALID = int(PageState.INVALID)
# Page-state tests over a scattered page set are bytes tests on the
# gathered uint8 states: ``states.tobytes() == _VALID_BYTE * n`` says "all
# VALID" and ``_FREE_BYTE in states.tobytes()`` says "any FREE" at a tenth
# of the cost of an elementwise compare plus ``.any()`` reduction.
_VALID_BYTE = bytes([_VALID])
_FREE_BYTE = bytes([_FREE])


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
        # Geometry is fixed for the array's lifetime (frozen config); the
        # run operations read it as attributes, not through properties.
        self._ppb = ppb
        self._total_pages = n_blocks * ppb
        self._state = np.full(n_blocks * ppb, _FREE, dtype=np.uint8)
        # next page offset to program in each block (sequential-program rule)
        self._write_ptr = np.zeros(n_blocks, dtype=np.int32)
        self._valid_count = np.zeros(n_blocks, dtype=np.int32)
        self._invalid_count = np.zeros(n_blocks, dtype=np.int32)
        self.erase_counts = np.zeros(n_blocks, dtype=np.int64)
        #: Blocks with no VALID and at least one INVALID page: erasable
        #: without copy-back, and greedy GC's answer whenever one exists.
        #: Every operation that moves a block's counts keeps it current
        #: (:meth:`check_invariants` cross-checks it against the states).
        self.dead: set[int] = set()
        #: ``page_ramp[i] == i`` over the physical pages (read-only, shared
        #: with the FTL).  A contiguous page run ``[a, b)`` *is*
        #: ``page_ramp[a:b]``, so run tests compare against / run stores
        #: copy from slices of it instead of building an ``np.arange`` per
        #: call.
        self.page_ramp = np.arange(self._total_pages, dtype=np.int64)
        self.page_ramp.flags.writeable = False
        # The per-call views (module docstring).  ``_runs[s][:n]`` is n
        # pages in state ``s``: the source of every run store and the
        # operand of every run compare.
        self._sv = memoryview(self._state)
        self._wp = memoryview(self._write_ptr)
        self._vc = memoryview(self._valid_count)
        self._ic = memoryview(self._invalid_count)
        self._ec = memoryview(self.erase_counts)
        self._runs = tuple(memoryview(bytes([s]) * self._total_pages)
                           for s in (_FREE, _VALID, _INVALID))
        self.programs = 0
        self.reads = 0
        self.erases = 0

    # -- geometry helpers --------------------------------------------------

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
        return PageState(self._sv[ppn])

    def valid_count(self, block: int) -> int:
        return self._vc[block]

    def invalid_count(self, block: int) -> int:
        return self._ic[block]

    def free_pages_in(self, block: int) -> int:
        return self._ppb - self._wp[block]

    def is_block_free(self, block: int) -> bool:
        """True when the block has never been programmed since its last erase."""
        return self._wp[block] == 0

    @property
    def valid_counts(self) -> np.ndarray:
        """Per-block valid-page counts (read-only view)."""
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
        if self._sv[ppn] == _FREE:
            raise RuntimeError(f"read of unwritten (FREE) page ppn={ppn}")
        self.reads += 1

    def read_run(self, start: int, count: int) -> None:
        """Read ``count`` contiguous pages starting at ``start`` (the
        contiguous-run form of :meth:`read_pages`: one test over a state
        slice, no gather).  The caller has range-checked the run."""
        if not all(self._sv[start:start + count]):  # FREE is the only 0
            raise RuntimeError("read of unwritten (FREE) page in span")
        self.reads += count

    def program_page(self, block: int) -> int:
        """Program the next sequential page of ``block``; return its ppn.

        Raises if the block is full — callers must allocate a new active
        block instead.
        """
        ptr = self._wp[block]
        if ptr >= self._ppb:
            raise RuntimeError(f"program on full block {block}")
        ppn = block * self._ppb + ptr
        assert self._sv[ppn] == _FREE, "sequential-program invariant broken"
        self._sv[ppn] = _VALID
        self._wp[block] = ptr + 1
        self._vc[block] += 1
        self.dead.discard(block)
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
        if not 0 <= offset < self._ppb:
            raise IndexError(f"offset {offset} out of range")
        ppn = block * self._ppb + offset
        if self._sv[ppn] != _FREE:
            raise RuntimeError(f"program of non-FREE page ppn={ppn}")
        self._sv[ppn] = _VALID
        self._wp[block] += 1
        self._vc[block] += 1
        self.dead.discard(block)
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
        ptr = self._wp[block]
        if ptr + count > self._ppb:
            raise RuntimeError(f"program_run overflows block {block}")
        lo = block * self._ppb + ptr
        self._sv[lo:lo + count] = self._runs[_VALID][:count]
        self._wp[block] = ptr + count
        self._vc[block] += count
        self.dead.discard(block)
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
        if not (0 <= start and end < self._total_pages):
            raise IndexError(f"run [{start}, {end}] out of range")
        runs = self._runs
        sv = self._sv
        if sv[start:start + count] != runs[_VALID][:count]:
            raise RuntimeError("invalidate_run on non-VALID page(s)")
        sv[start:start + count] = runs[_INVALID][:count]
        ppb = self._ppb
        valid = self._vc
        first_b = start // ppb
        last_b = end // ppb
        if first_b == last_b:
            left = valid[first_b] - count
            valid[first_b] = left
            self._ic[first_b] += count
            if not left:
                self.dead.add(first_b)
            return
        for blk in range(first_b, last_b + 1):
            lo = max(start, blk * ppb)
            hi = min(end + 1, (blk + 1) * ppb)
            n = hi - lo
            left = valid[blk] - n
            valid[blk] = left
            self._ic[blk] += n
            if not left:
                self.dead.add(blk)

    def invalidate_pages(self, ppns: np.ndarray) -> None:
        """Vectorised invalidate of many VALID pages (may repeat blocks)."""
        n = int(ppns.size)
        if n == 0:
            return
        p0 = int(ppns[0])
        # int64 arrays are equal exactly when their bytes are; any other
        # dtype just misses the shortcut and takes the general path.
        if int(ppns[-1]) - p0 == n - 1 and (
            n == 1 or ppns.tobytes() == self.page_ramp[p0:p0 + n].tobytes()
        ):
            # Contiguous ascending run (block-aligned placements produce
            # these almost exclusively): slice stores beat fancy indexing.
            self.invalidate_run(p0, n)
            return
        if self._state[ppns].tobytes() != _VALID_BYTE * n:
            raise RuntimeError("invalidate_pages on non-VALID page(s)")
        self._state[ppns] = _INVALID
        blocks = ppns // self._ppb
        # bincount beats ufunc.at for the small repeat-heavy block lists
        # GC and trims produce.
        per_block = np.bincount(blocks)
        self._valid_count[: per_block.size] -= per_block
        self._invalid_count[: per_block.size] += per_block
        touched = per_block.nonzero()[0]
        self.dead.update(touched[self._valid_count[touched] == 0].tolist())

    def read_pages(self, ppns: np.ndarray) -> None:
        """Vectorised read of many non-FREE pages."""
        if ppns.size == 0:
            return
        if _FREE_BYTE in self._state[ppns].tobytes():
            raise RuntimeError("read of unwritten (FREE) page in span")
        self.reads += int(ppns.size)

    def invalidate_page(self, ppn: int) -> None:
        """Mark a VALID page INVALID (e.g. its logical page was overwritten)."""
        self._check_ppn(ppn)
        sv = self._sv
        if sv[ppn] != _VALID:
            raise RuntimeError(f"invalidate of non-VALID page ppn={ppn} "
                               f"(state={PageState(sv[ppn]).name})")
        block = int(ppn) // self._ppb
        sv[ppn] = _INVALID
        left = self._vc[block] - 1
        self._vc[block] = left
        self._ic[block] += 1
        if not left:
            self.dead.add(block)

    def erase_block(self, block: int) -> None:
        """Erase a whole block: all pages return to FREE, wear count +1.

        Erasing a block that still holds VALID pages is rejected; the FTL
        must migrate them first.
        """
        if not 0 <= block < self.config.num_blocks:
            raise IndexError(f"block {block} out of range")
        if self._vc[block] != 0:
            raise RuntimeError(
                f"erase of block {block} with {self._vc[block]} valid pages"
            )
        lo = block * self._ppb
        self._sv[lo:lo + self._ppb] = self._runs[_FREE][:self._ppb]
        self._wp[block] = 0
        self._ic[block] = 0
        self.dead.discard(block)
        self._ec[block] += 1
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
        # The two facts the GC fast path leans on instead of recomputing
        # them per call: the candidate scan tests invalid_count alone, and
        # the erase total is read from the running counter.
        if ((self._invalid_count > 0) & (self._write_ptr <= 0)).any():
            raise AssertionError("invalid pages in a block with write_ptr == 0")
        if self.erases != int(self.erase_counts.sum()):
            raise AssertionError("erases out of sync with erase_counts.sum()")
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
        # The index greedy GC reads instead of scanning the counts.
        dead = np.flatnonzero((valid == 0) & (invalid > 0)).tolist()
        if self.dead != set(dead):
            raise AssertionError("dead blocks out of sync with page states")
