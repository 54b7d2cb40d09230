"""Disk geometry and the analytic seek-time model.

Seek time follows the standard square-root model (Ruemmler & Wilkes):
``seek(d) = t2t + (full_stroke - t2t) * sqrt(d / d_max)`` for distance
``d`` in sectors, which captures the arm's accelerate/coast/settle phases
well enough for comparative studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = ["DiskGeometry", "SECTOR_BYTES"]

SECTOR_BYTES = 512


@dataclass(frozen=True)
class DiskGeometry:
    """Parameters of a simulated mechanical disk.

    Defaults are datasheet-class numbers for the paper's WDC WD3200AAJS
    (7200 rpm desktop drive, ~8.9 ms average seek, ~100 MB/s sustained).
    """

    capacity_bytes: int = 320 * 10**9
    rpm: int = 7200
    track_to_track_seek_ms: float = 2.0
    full_stroke_seek_ms: float = 21.0
    average_seek_ms: float = 8.9
    sustained_transfer_mb_s: float = 100.0
    #: request-size-independent controller/command overhead
    controller_overhead_us: float = 30.0

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.rpm <= 0:
            raise ValueError("rpm must be positive")
        if not 0 <= self.track_to_track_seek_ms <= self.full_stroke_seek_ms:
            raise ValueError("need 0 <= track_to_track <= full_stroke seek")
        if self.sustained_transfer_mb_s <= 0:
            raise ValueError("transfer rate must be positive")

    # Frozen dataclass: derived values are pure functions of immutable
    # fields, computed once per instance (see CacheConfig).

    @cached_property
    def num_sectors(self) -> int:
        return self.capacity_bytes // SECTOR_BYTES

    @cached_property
    def rotation_period_us(self) -> float:
        """Time of one full platter revolution."""
        return 60.0 / self.rpm * 1e6

    @cached_property
    def mean_rotational_latency_us(self) -> float:
        """Expected wait for the target sector: half a revolution."""
        return self.rotation_period_us / 2.0

    def seek_time_us(self, distance_sectors: int) -> float:
        """Seek time for an arm move of ``distance_sectors``.

        Zero distance means the head is already on the right track — only
        settle-free track-following, modelled as zero seek.
        """
        if distance_sectors < 0:
            raise ValueError("seek distance cannot be negative")
        if distance_sectors == 0:
            return 0.0
        frac = min(1.0, distance_sectors / self.num_sectors)
        t2t = self.track_to_track_seek_ms
        full = self.full_stroke_seek_ms
        return (t2t + (full - t2t) * math.sqrt(frac)) * 1000.0

    def transfer_time_us(self, nbytes: int) -> float:
        """Media transfer time for ``nbytes`` at the sustained rate."""
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        return nbytes / (self.sustained_transfer_mb_s * 1e6) * 1e6
