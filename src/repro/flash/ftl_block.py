"""Block-mapping FTL [7].

One logical block maps to one physical block and pages keep their in-block
offset.  In-place programming is possible only while the target page is
still FREE; any overwrite forces a read-modify-write of the whole block
(copy-merge into a fresh block + erase).  This gives the low SRAM footprint
the paper cites, at the cost of terrible random-write behaviour — which is
exactly what the FTL ablation bench demonstrates.
"""

from __future__ import annotations

import numpy as np

from repro._hot import HOT
from repro.flash.constants import FlashConfig
from repro.flash.ftl_base import FTL
from repro.flash.nand import PageState

__all__ = ["BlockMappingFTL"]

_UNMAPPED = -1


class BlockMappingFTL(FTL):
    """Classic block-level mapping with copy-merge on overwrite."""

    def __init__(self, config: FlashConfig) -> None:
        super().__init__(config)
        ppb = config.pages_per_block
        self.num_lblocks = self.num_lpns // ppb
        self._l2b = np.full(self.num_lblocks, _UNMAPPED, dtype=np.int64)
        self._mapped = 0

    # -- host operations -----------------------------------------------------

    def read(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        lbn, off = divmod(lpn, self.config.pages_per_block)
        pb = int(self._l2b[lbn])
        if pb == _UNMAPPED:
            self.stats.host_page_reads += 1
            return self.config.read_us
        ppn = pb * self.config.pages_per_block + off
        if self.nand.state(ppn) != PageState.VALID:
            self.stats.host_page_reads += 1
            return self.config.read_us
        self.nand.read_page(ppn)
        self.stats.host_page_reads += 1
        return self.config.read_us

    def write(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        ppb = self.config.pages_per_block
        lbn, off = divmod(lpn, ppb)
        pb = int(self._l2b[lbn])
        latency = 0.0
        if pb == _UNMAPPED:
            pb = self._take_free_block()
            self._l2b[lbn] = pb
            self.nand.program_page_at(pb, off)
            self._mapped += 1
            self.stats.host_page_writes += 1
            return latency + self.config.write_us

        ppn = pb * ppb + off
        state = self.nand.state(ppn)
        if state == PageState.FREE:
            self.nand.program_page_at(pb, off)
            self._mapped += 1
            self.stats.host_page_writes += 1
            return latency + self.config.write_us

        # Overwrite: copy-merge the block into a fresh one.
        latency += self._copy_merge(lbn, pb, new_data_offset=off)
        self.stats.host_page_writes += 1
        latency += self.config.write_us
        return latency

    def trim(self, lpn: int) -> float:
        self._check_lpn(lpn)
        HOT.ftl_map_lookups += 1
        ppb = self.config.pages_per_block
        lbn, off = divmod(lpn, ppb)
        pb = int(self._l2b[lbn])
        if pb == _UNMAPPED:
            return 0.0
        ppn = pb * ppb + off
        if self.nand.state(ppn) != PageState.VALID:
            return 0.0
        self.nand.invalidate_page(ppn)
        self._mapped -= 1
        self.stats.trimmed_pages += 1
        latency = 0.0
        if self.nand.valid_count(pb) == 0:
            self.nand.erase_block(pb)
            self._release_block(pb)
            self._l2b[lbn] = _UNMAPPED
            self.stats.block_erases += 1
            latency += self.config.erase_us
        return latency

    def mapped_lpn_count(self) -> int:
        return self._mapped

    def physical_block_of(self, lbn: int) -> int:
        """Physical block backing logical block ``lbn`` (-1 if unmapped)."""
        return int(self._l2b[lbn])

    # -- internals ----------------------------------------------------------------

    def _copy_merge(self, lbn: int, old_pb: int, new_data_offset: int) -> float:
        """Move logical block ``lbn`` to a fresh physical block.

        Copies every VALID page except ``new_data_offset`` (the caller is
        about to program fresh data there), erases the old block, and
        installs the new mapping.  Returns copy+erase time; the caller adds
        the time for the new page program itself.
        """
        ppb = self.config.pages_per_block
        latency = 0.0
        new_pb = self._take_free_block()
        for off in range(ppb):
            ppn = old_pb * ppb + off
            if self.nand.state(ppn) != PageState.VALID:
                continue
            self.nand.invalidate_page(ppn)
            if off == new_data_offset:
                self._mapped -= 1  # superseded by the incoming write
                continue
            self.nand.read_page(ppn)
            self.stats.gc_page_reads += 1
            latency += self.config.read_us
            self.nand.program_page_at(new_pb, off)
            self.stats.gc_page_writes += 1
            latency += self.config.write_us
        self.nand.erase_block(old_pb)
        self._release_block(old_pb)
        self.stats.block_erases += 1
        latency += self.config.erase_us
        self._l2b[lbn] = new_pb
        self.nand.program_page_at(new_pb, new_data_offset)
        self._mapped += 1
        self.stats.full_merges += 1
        return latency
