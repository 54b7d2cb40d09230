"""Data selection policy (Section VI.A).

Implements the paper's two formulas:

* **Formula 1** — the SSD-cached prefix of an inverted list is
  ``SC = ceil(SI * PU / SB)`` whole flash blocks, where SI is the used
  list size in memory, PU its utilization rate and SB the block size.
* **Formula 2** — the efficiency value ``EV = Freq / SC`` ranks lists by
  hits delivered per block of cache space; entries below the threshold
  TEV are discarded instead of flushed to SSD (Fig. 4's memory / SSD /
  HDD bands).
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["ssd_cache_blocks", "efficiency_value", "SelectionPolicy", "SelectionDecision"]


def ssd_cache_blocks(si_bytes: int, pu: float, sb_bytes: int) -> int:
    """Formula 1: blocks of a used list worth caching on SSD.

    >>> ssd_cache_blocks(1000 * 1024, 0.5, 128 * 1024)   # the paper's example
    4
    """
    if si_bytes < 0:
        raise ValueError("si_bytes cannot be negative")
    if not 0.0 < pu <= 1.0:
        raise ValueError(f"pu must be in (0, 1]: {pu}")
    if sb_bytes <= 0:
        raise ValueError("sb_bytes must be positive")
    if si_bytes == 0:
        return 0
    return max(1, -(-int(si_bytes * pu) // sb_bytes))


def efficiency_value(freq: int, sc_blocks: int) -> float:
    """Formula 2: EV = Freq / SC (accesses delivered per cached block)."""
    if freq < 0:
        raise ValueError("freq cannot be negative")
    if sc_blocks <= 0:
        raise ValueError("sc_blocks must be positive")
    return freq / sc_blocks


class SelectionDecision(NamedTuple):
    """Outcome of selecting a memory-evicted list for the SSD tier.

    A named tuple rather than a frozen dataclass: one is built per L1 list
    eviction, so construction sits on the miss chain (the same choice as
    ``ListDemand`` and ``SearchResult``).
    """

    #: admit to SSD at all (False = discard, Fig. 4's HDD band)
    admit: bool
    #: blocks to cache when admitted (Formula 1)
    sc_blocks: int
    #: the entry's efficiency value (Formula 2)
    ev: float


class SelectionPolicy:
    """Selection management (SM) of the cache manager.

    The LRU baseline admits everything at its full used size; the
    cost-based policies quantise with Formula 1 and filter with TEV.
    """

    def __init__(self, block_bytes: int, tev: float = 0.0, cost_based: bool = True) -> None:
        if block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if tev < 0:
            raise ValueError("tev cannot be negative")
        self.block_bytes = block_bytes
        self.tev = tev
        self.cost_based = cost_based

    def select_list(self, si_bytes: int, pu: float, freq: int) -> SelectionDecision:
        """Decide SSD admission for a list evicted from memory."""
        if si_bytes <= 0:
            return SelectionDecision(admit=False, sc_blocks=0, ev=0.0)
        if not self.cost_based:
            # Baseline: cache the whole used list, rounded up to blocks
            # only for space accounting (placement is byte-granular).
            blocks = -(-si_bytes // self.block_bytes)
            return SelectionDecision(admit=True, sc_blocks=blocks,
                                     ev=efficiency_value(freq, blocks))
        sc = ssd_cache_blocks(si_bytes, pu, self.block_bytes)
        if sc == 0:
            return SelectionDecision(admit=False, sc_blocks=0, ev=0.0)
        ev = efficiency_value(freq, sc)
        return SelectionDecision(admit=ev >= self.tev, sc_blocks=sc, ev=ev)
