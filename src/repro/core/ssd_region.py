"""SSD cache-file space allocators.

The cache file on SSD is split into a result region and an inverted-list
region.  Two allocators implement the two placement disciplines the paper
compares:

* :class:`BlockRegion` — 128 KB-aligned whole blocks (the paper's
  log-based placement, Fig. 5/8).  Every device write is one large
  sequential block write, which is what keeps FTL garbage collection
  cheap.
* :class:`ByteRegion` — sector-aligned first-fit extents (the LRU
  baseline).  Entries land wherever they fit, so overwrites become the
  small scattered writes whose erase cost Fig. 19 charges to LRU.
"""

from __future__ import annotations

from repro.flash.constants import SECTOR_BYTES

__all__ = ["BlockRegion", "ByteRegion"]


class BlockRegion:
    """Whole-block allocator over ``num_blocks`` blocks at ``base_lba``."""

    def __init__(self, base_lba: int, num_blocks: int, block_bytes: int) -> None:
        if num_blocks < 0 or block_bytes <= 0 or block_bytes % SECTOR_BYTES:
            raise ValueError("bad region geometry")
        if base_lba < 0:
            raise ValueError("base_lba cannot be negative")
        self.base_lba = base_lba
        self.num_blocks = num_blocks
        self.block_bytes = block_bytes
        self.sectors_per_block = block_bytes // SECTOR_BYTES
        # Stack of free block ids; low ids first so the initial fill is a
        # sequential log append.
        self._free: list[int] = list(range(num_blocks - 1, -1, -1))

    @property
    def free_count(self) -> int:
        return len(self._free)

    def lba_of(self, block_id: int) -> int:
        if not 0 <= block_id < self.num_blocks:
            raise IndexError(f"block id {block_id} out of region")
        return self.base_lba + block_id * self.sectors_per_block

    def alloc(self, n: int) -> list[int] | None:
        """Take ``n`` free blocks; None if not enough are free."""
        if n < 0:
            raise ValueError("cannot allocate a negative block count")
        if n > len(self._free):
            return None
        return [self._free.pop() for _ in range(n)]

    def free(self, blocks: list[int]) -> None:
        for b in blocks:
            if not 0 <= b < self.num_blocks:
                raise IndexError(f"block id {b} out of region")
        self._free.extend(reversed(blocks))


class ByteRegion:
    """First-fit extent allocator (sector granular) over ``size_bytes``."""

    def __init__(self, base_lba: int, size_bytes: int) -> None:
        if size_bytes < 0:
            raise ValueError("size_bytes cannot be negative")
        if base_lba < 0:
            raise ValueError("base_lba cannot be negative")
        self.base_lba = base_lba
        self.size_sectors = size_bytes // SECTOR_BYTES
        # Free extents as (start_sector, length_sectors), sorted by start.
        self._free: list[tuple[int, int]] = (
            [(0, self.size_sectors)] if self.size_sectors else []
        )

    @property
    def free_sectors(self) -> int:
        return sum(length for _, length in self._free)

    def alloc(self, nbytes: int) -> int | None:
        """First-fit allocate; returns an absolute LBA or None."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        need = -(-nbytes // SECTOR_BYTES)
        for i, (start, length) in enumerate(self._free):
            if length >= need:
                if length == need:
                    del self._free[i]
                else:
                    self._free[i] = (start + need, length - need)
                return self.base_lba + start
        return None

    def free(self, lba: int, nbytes: int) -> None:
        """Return an extent; adjacent free extents are coalesced."""
        if nbytes <= 0:
            raise ValueError("nbytes must be positive")
        start = lba - self.base_lba
        length = -(-nbytes // SECTOR_BYTES)
        if start < 0 or start + length > self.size_sectors:
            raise ValueError("extent outside region")
        # Insert keeping sort order, then coalesce neighbours.
        lo, hi = 0, len(self._free)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._free[mid][0] < start:
                lo = mid + 1
            else:
                hi = mid
        # Overlap checks against neighbours.
        if lo > 0:
            pstart, plen = self._free[lo - 1]
            if pstart + plen > start:
                raise ValueError("double free (overlaps previous extent)")
        if lo < len(self._free) and start + length > self._free[lo][0]:
            raise ValueError("double free (overlaps next extent)")
        self._free.insert(lo, (start, length))
        self._coalesce_around(lo)

    def _coalesce_around(self, i: int) -> None:
        if i + 1 < len(self._free):
            s, n = self._free[i]
            ns, nl = self._free[i + 1]
            if s + n == ns:
                self._free[i] = (s, n + nl)
                del self._free[i + 1]
        if i > 0:
            ps, pl = self._free[i - 1]
            s, n = self._free[i]
            if ps + pl == s:
                self._free[i - 1] = (ps, pl + n)
                del self._free[i]
