"""Flash-aware buffer management (Section II.C of the paper).

The paper surveys three buffer-management schemes designed around flash's
asymmetric write cost and positions its own policies against them:

* **CFLRU** (Park et al. [13]) — a host page cache that evicts *clean*
  pages from a clean-first region before dirty ones, deferring writes;
* **LRU-WSR** (Jung et al. [14]) — LRU plus a second chance for dirty
  pages ("write sequence reordering"), so only cold dirty pages flush;
* **BPLRU** (Kim & Ahn [15]) — an SSD-internal write buffer that pads
  dirty pages into whole flash blocks and writes them sequentially.

:class:`HostPageBuffer` implements plain LRU, CFLRU and LRU-WSR behind
one write-back page-cache front-end usable on any block device;
:class:`BplruBuffer` implements the block-padding internal buffer for the
simulated SSD.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass

from repro.flash.constants import SECTOR_BYTES
from repro.flash.ssd import SimulatedSSD
from repro.storage.device import BlockDevice

__all__ = ["BufferPolicy", "BufferStats", "HostPageBuffer", "BplruBuffer"]

#: CFLRU's clean-first region: this share of the buffer, at the LRU end.
CLEAN_FIRST_FRACTION = 0.25


class BufferPolicy(str, enum.Enum):
    LRU = "lru"
    CFLRU = "cflru"
    LRU_WSR = "lru-wsr"


@dataclass
class BufferStats:
    hits: int = 0
    misses: int = 0
    writebacks: int = 0
    evict_clean: int = 0
    second_chances: int = 0
    padding_reads: int = 0
    block_flushes: int = 0

    @property
    def hit_ratio(self) -> float:
        n = self.hits + self.misses
        return self.hits / n if n else 0.0


@dataclass
class _Page:
    dirty: bool = False
    cold: bool = False  # LRU-WSR's cold flag


class HostPageBuffer:
    """Write-back page cache over a block device.

    Reads and writes are absorbed at page granularity; evictions write
    dirty pages back to the device.  The three policies differ only in
    victim selection, which is exactly how the literature frames them.
    """

    def __init__(
        self,
        device: BlockDevice,
        capacity_pages: int,
        page_bytes: int = 2048,
        policy: BufferPolicy = BufferPolicy.LRU,
    ) -> None:
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        if page_bytes <= 0 or page_bytes % SECTOR_BYTES:
            raise ValueError("page_bytes must be a positive multiple of 512")
        self.device = device
        self.capacity_pages = capacity_pages
        self.page_bytes = page_bytes
        self.policy = BufferPolicy(policy)
        self._pages: OrderedDict[int, _Page] = OrderedDict()
        self.stats = BufferStats()

    # -- geometry ------------------------------------------------------------

    @property
    def name(self) -> str:
        return f"buffer({self.policy.value})+{self.device.name}"

    def _page_span(self, lba: int, nbytes: int) -> range:
        if lba < 0 or nbytes <= 0:
            raise ValueError(f"invalid request lba={lba} nbytes={nbytes}")
        start = lba * SECTOR_BYTES
        end = start + nbytes
        return range(start // self.page_bytes, (end - 1) // self.page_bytes + 1)

    def _page_lba(self, page_no: int) -> int:
        return page_no * (self.page_bytes // SECTOR_BYTES)

    # -- host interface ----------------------------------------------------------

    def read(self, lba: int, nbytes: int) -> float:
        latency = 0.0
        for page_no in self._page_span(lba, nbytes):
            page = self._pages.get(page_no)
            if page is not None:
                self._pages.move_to_end(page_no)
                self.stats.hits += 1
                continue
            self.stats.misses += 1
            latency += self.device.read(self._page_lba(page_no), self.page_bytes)
            latency += self._insert(page_no, dirty=False)
        return latency

    def write(self, lba: int, nbytes: int) -> float:
        latency = 0.0
        for page_no in self._page_span(lba, nbytes):
            page = self._pages.get(page_no)
            if page is not None:
                page.dirty = True
                page.cold = False  # re-referenced: hot again
                self._pages.move_to_end(page_no)
                self.stats.hits += 1
                continue
            self.stats.misses += 1
            latency += self._insert(page_no, dirty=True)
        return latency

    def trim(self, lba: int, nbytes: int) -> float:
        for page_no in self._page_span(lba, nbytes):
            self._pages.pop(page_no, None)
        return self.device.trim(lba, nbytes)

    def flush(self) -> float:
        """Write back every dirty page (shutdown / checkpoint)."""
        latency = 0.0
        for page_no, page in self._pages.items():
            if page.dirty:
                latency += self.device.write(self._page_lba(page_no), self.page_bytes)
                self.stats.writebacks += 1
                page.dirty = False
        return latency

    @property
    def dirty_pages(self) -> int:
        return sum(1 for p in self._pages.values() if p.dirty)

    def __len__(self) -> int:
        return len(self._pages)

    # -- internals --------------------------------------------------------------

    def _insert(self, page_no: int, dirty: bool) -> float:
        latency = 0.0
        while len(self._pages) >= self.capacity_pages:
            latency += self._evict_one()
        self._pages[page_no] = _Page(dirty=dirty)
        return latency

    def _evict_one(self) -> float:
        if self.policy is BufferPolicy.CFLRU:
            victim = self._cflru_victim()
        elif self.policy is BufferPolicy.LRU_WSR:
            victim = self._wsr_victim()
        else:
            victim = next(iter(self._pages))
        page = self._pages.pop(victim)
        if page.dirty:
            self.stats.writebacks += 1
            return self.device.write(self._page_lba(victim), self.page_bytes)
        self.stats.evict_clean += 1
        return 0.0

    def _cflru_victim(self) -> int:
        """First clean page within the clean-first region, else plain LRU."""
        window = max(1, int(self.capacity_pages * CLEAN_FIRST_FRACTION))
        for i, (page_no, page) in enumerate(self._pages.items()):
            if i >= window:
                break
            if not page.dirty:
                return page_no
        return next(iter(self._pages))

    def _wsr_victim(self) -> int:
        """LRU, but a hot dirty page gets one second chance (cold flag)."""
        guard = len(self._pages) + 1
        while guard:
            guard -= 1
            page_no, page = next(iter(self._pages.items()))
            if page.dirty and not page.cold:
                page.cold = True
                self._pages.move_to_end(page_no)
                self.stats.second_chances += 1
                continue
            return page_no
        return next(iter(self._pages))  # pragma: no cover - guard exit


class BplruBuffer:
    """Block-Padding LRU: the SSD-internal write buffer of [15].

    Dirty pages are grouped by erase block; the LRU *block* is flushed as
    one padded sequential block write (missing pages are first read from
    flash), which turns random small writes into switch-merge-friendly
    block writes.
    """

    def __init__(self, ssd: SimulatedSSD, capacity_pages: int) -> None:
        if capacity_pages < 1:
            raise ValueError("capacity_pages must be >= 1")
        self.ssd = ssd
        self.capacity_pages = capacity_pages
        self.page_bytes = ssd.config.page_bytes
        self.pages_per_block = ssd.config.pages_per_block
        self._blocks: OrderedDict[int, set[int]] = OrderedDict()
        self._buffered = 0
        self.stats = BufferStats()

    @property
    def name(self) -> str:
        return f"bplru+{self.ssd.name}"

    def _page_span(self, lba: int, nbytes: int) -> range:
        if lba < 0 or nbytes <= 0:
            raise ValueError(f"invalid request lba={lba} nbytes={nbytes}")
        start = lba * SECTOR_BYTES
        end = start + nbytes
        return range(start // self.page_bytes, (end - 1) // self.page_bytes + 1)

    def write(self, lba: int, nbytes: int) -> float:
        latency = 0.0
        for lpn in self._page_span(lba, nbytes):
            block_no, off = divmod(lpn, self.pages_per_block)
            pages = self._blocks.get(block_no)
            if pages is None:
                pages = set()
                self._blocks[block_no] = pages
            if off in pages:
                self.stats.hits += 1
            else:
                pages.add(off)
                self._buffered += 1
                self.stats.misses += 1
            self._blocks.move_to_end(block_no)
            while self._buffered > self.capacity_pages:
                latency += self._flush_lru_block()
        return latency

    def read(self, lba: int, nbytes: int) -> float:
        """Reads pass through (buffered pages would be served from RAM,
        which costs ~nothing next to a flash read)."""
        return self.ssd.read(lba, nbytes)

    def trim(self, lba: int, nbytes: int) -> float:
        return self.ssd.trim(lba, nbytes)

    def flush(self) -> float:
        latency = 0.0
        while self._blocks:
            latency += self._flush_lru_block()
        return latency

    @property
    def buffered_pages(self) -> int:
        return self._buffered

    def _flush_lru_block(self) -> float:
        block_no, pages = self._blocks.popitem(last=False)
        self._buffered -= len(pages)
        latency = 0.0
        block_lba = block_no * self.pages_per_block * (self.page_bytes // SECTOR_BYTES)
        missing = self.pages_per_block - len(pages)
        if missing:
            # Padding: read the block's absent pages before rewriting.
            self.stats.padding_reads += missing
            latency += self.ssd.read(block_lba, self.page_bytes * self.pages_per_block)
        latency += self.ssd.write(block_lba, self.page_bytes * self.pages_per_block)
        self.stats.block_flushes += 1
        self.stats.writebacks += len(pages)
        return latency
