"""Wear and lifetime reporting for simulated SSDs.

The paper argues (citing Griffin [3]) that the combination of a stressful
workload and limited erase cycles can cut SSD lifetime to under a year, and
evaluates its policies by the block-erase count they save (Fig. 19a).  This
module turns raw per-block erase counters into the numbers those arguments
need: totals, wear-levelling skew and a projected lifetime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WearReport", "wear_projection", "wear_report"]

#: Typical MLC endurance of the paper's era (Intel SSD 320 class).
DEFAULT_ENDURANCE_CYCLES = 5000


@dataclass(frozen=True)
class WearReport:
    """Summary statistics over per-block erase counts."""

    total_erases: int
    max_erases: int
    min_erases: int
    mean_erases: float
    std_erases: float
    #: max/mean — 1.0 is perfectly level wear; large values mean hot blocks.
    skew: float
    #: fraction of rated endurance consumed by the most-worn block.
    lifetime_consumed: float

    def remaining_lifetime_days(self, elapsed_days: float) -> float:
        """Project days of life left, assuming the observed wear rate continues."""
        if elapsed_days <= 0:
            raise ValueError("elapsed_days must be positive")
        if self.lifetime_consumed <= 0:
            return float("inf")
        rate_per_day = self.lifetime_consumed / elapsed_days
        return (1.0 - self.lifetime_consumed) / rate_per_day


def wear_projection(max_erases: int, mean_erases: float,
                    endurance_cycles: int) -> tuple[float, float]:
    """``(skew, lifetime_consumed)`` from a max and a mean the caller
    already holds: :func:`wear_report`, and the per-window flash gauges
    (which get the mean from ``NandArray.erases``, not a reduction)."""
    if endurance_cycles <= 0:
        raise ValueError("endurance_cycles must be positive")
    return ((max_erases / mean_erases) if mean_erases > 0 else 1.0,
            min(1.0, max_erases / endurance_cycles))


def wear_report(
    erase_counts: np.ndarray,
    endurance_cycles: int = DEFAULT_ENDURANCE_CYCLES,
) -> WearReport:
    """Build a :class:`WearReport` from an array of per-block erase counts."""
    counts = np.asarray(erase_counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("erase_counts must be non-empty")
    mean = float(counts.mean())
    max_c = int(counts.max())
    skew, lifetime_consumed = wear_projection(max_c, mean, endurance_cycles)
    return WearReport(
        total_erases=int(counts.sum()),
        max_erases=max_c,
        min_erases=int(counts.min()),
        mean_erases=mean,
        std_erases=float(counts.std()),
        skew=skew,
        lifetime_consumed=lifetime_consumed,
    )
