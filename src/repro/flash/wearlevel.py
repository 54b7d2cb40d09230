"""Static wear leveling.

Greedy GC alone never erases blocks holding cold data, so a workload with
a hot subset (exactly what a cache produces) concentrates erasures on a
few blocks and kills them early — the lifetime concern of Section II.B.
:class:`WearLevelingFTL` adds classic *static wear leveling* on top of
the page-mapping FTL: when the erase-count spread exceeds a threshold,
the coldest data block is migrated so its barely-worn block re-enters the
write rotation.
"""

from __future__ import annotations

import numpy as np

from repro.flash.constants import FlashConfig
from repro.flash.ftl_page import PageMappingFTL

__all__ = ["WearLevelingFTL"]


class WearLevelingFTL(PageMappingFTL):
    """Page-mapping FTL with threshold-triggered static wear leveling.

    Parameters
    ----------
    wear_delta_threshold:
        Migrate when ``max(erase) - min(erase among data blocks)`` exceeds
        this value.  Smaller = more even wear, more migration overhead.
    check_interval:
        Host writes between imbalance checks (checks scan per-block
        arrays, so they are cheap but not free).
    """

    def __init__(
        self,
        config: FlashConfig,
        wear_delta_threshold: int = 8,
        check_interval: int = 64,
    ) -> None:
        super().__init__(config)
        if wear_delta_threshold < 1:
            raise ValueError("wear_delta_threshold must be >= 1")
        if check_interval < 1:
            raise ValueError("check_interval must be >= 1")
        self.wear_delta_threshold = wear_delta_threshold
        self.check_interval = check_interval
        self._writes_since_check = 0
        self.migrations = 0

    def write(self, lpn: int) -> float:
        latency = super().write(lpn)
        self._writes_since_check += 1
        if self._writes_since_check >= self.check_interval:
            self._writes_since_check = 0
            latency += self._maybe_level()
        return latency

    def write_span(self, lpn_start: int, count: int) -> float:
        latency = super().write_span(lpn_start, count)
        self._writes_since_check += count
        if self._writes_since_check >= self.check_interval:
            self._writes_since_check = 0
            latency += self._maybe_level()
        return latency

    def _maybe_level(self) -> float:
        """Migrate the coldest data block if wear spread is excessive."""
        if self.free_block_count < 1:
            return 0.0  # migration needs copy headroom; let GC run first
        counts = self.nand.erase_counts
        # Cold candidates: blocks holding data (valid pages) that are not
        # the active block.
        data_mask = self.nand.valid_counts > 0
        data_mask[self._active_block] = False
        if not data_mask.any():
            return 0.0
        data_blocks = np.nonzero(data_mask)[0]
        coldest = int(data_blocks[np.argmin(counts[data_blocks])])
        if int(counts.max()) - int(counts[coldest]) <= self.wear_delta_threshold:
            return 0.0
        # Relocate the cold data; the freed block rejoins the pool and
        # will absorb hot writes.
        latency = self._collect(coldest)
        self.migrations += 1
        self.stats.extra["wl_migrations"] = self.migrations
        return latency
