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

#: Migrate when ``max(erase) - min(erase among data blocks)`` exceeds
#: this.  Smaller = more even wear, more migration overhead.
WEAR_DELTA_THRESHOLD = 4
#: Host writes between imbalance checks (checks scan per-block arrays,
#: so they are cheap but not free).
CHECK_INTERVAL = 128


class WearLevelingFTL(PageMappingFTL):
    """Page-mapping FTL with threshold-triggered static wear leveling."""

    def __init__(self, config: FlashConfig) -> None:
        super().__init__(config)
        self._writes_since_check = 0
        self.migrations = 0

    def write(self, lpn: int) -> float:
        latency = super().write(lpn)
        self._writes_since_check += 1
        if self._writes_since_check >= CHECK_INTERVAL:
            self._writes_since_check = 0
            latency += self._maybe_level()
        return latency

    def write_span(self, lpn_start: int, count: int) -> float:
        latency = super().write_span(lpn_start, count)
        self._writes_since_check += count
        if self._writes_since_check >= CHECK_INTERVAL:
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
        if int(counts.max()) - int(counts[coldest]) <= WEAR_DELTA_THRESHOLD:
            return 0.0
        # Relocate the cold data; the freed block rejoins the pool and
        # will absorb hot writes.
        latency = self._collect(coldest)
        self.migrations += 1
        self.stats.extra["wl_migrations"] = self.migrations
        return latency
