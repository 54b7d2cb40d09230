"""Sector-addressed HDD device model.

Tracks head position so that sequential requests stream while random
requests pay seek + rotational latency.  Deterministic by default (expected
half-rotation); pass an ``rng`` for sampled rotational delays when latency
*distributions* matter (e.g. trace studies).
"""

from __future__ import annotations

import numpy as np

from repro.hdd.geometry import SECTOR_BYTES, DiskGeometry
from repro.sim.clock import VirtualClock
from repro.sim.counters import CounterSet

__all__ = ["SimulatedHDD"]

#: Requests that continue within this many sectors of the previous request's
#: end are treated as sequential (track buffer / read-ahead absorbs them).
_SEQUENTIAL_SLACK_SECTORS = 256


class SimulatedHDD:
    """A mechanical disk with positional state.

    Implements the same device interface as
    :class:`~repro.flash.ssd.SimulatedSSD`: ``read``/``write``/``trim``
    returning microseconds of service time charged to the shared clock.
    """

    def __init__(
        self,
        geometry: DiskGeometry | None = None,
        clock: VirtualClock | None = None,
        rng: np.random.Generator | None = None,
        name: str = "hdd",
    ) -> None:
        self.geometry = geometry or DiskGeometry()
        self.clock = clock or VirtualClock()
        self.rng = rng
        self.name = name
        self.counters = CounterSet()
        #: Optional span tracer (repro.obs); None keeps the hot path bare.
        self.tracer = None
        self._head_lba = 0
        # Read-path caches, as on SimulatedSSD: geometry is frozen, and
        # counter refs are resolved lazily (first seek, first read) so a
        # disk that never seeks or reads keeps the same counter snapshot.
        self._capacity_bytes = self.geometry.capacity_bytes
        self._seek_ctr = None
        self._read_ctrs = None

    @property
    def service_lanes(self) -> int:
        """A single actuator: the kernel queue *is* the seek queue."""
        return 1

    @property
    def capacity_bytes(self) -> int:
        return self._capacity_bytes

    @property
    def num_sectors(self) -> int:
        return self.geometry.num_sectors

    # -- latency model ---------------------------------------------------------

    def _service_time_us(self, lba: int, nbytes: int) -> float:
        if lba < 0 or nbytes <= 0:
            raise ValueError(f"invalid request lba={lba} nbytes={nbytes}")
        if lba * SECTOR_BYTES + nbytes > self._capacity_bytes:
            raise ValueError("request exceeds disk capacity")
        geo = self.geometry
        distance = abs(lba - self._head_lba)
        latency = geo.controller_overhead_us
        if distance > _SEQUENTIAL_SLACK_SECTORS:
            latency += geo.seek_time_us(distance)
            if self.rng is None:
                latency += geo.mean_rotational_latency_us
            else:
                latency += float(self.rng.uniform(0.0, geo.rotation_period_us))
            ctr = self._seek_ctr
            if ctr is None:
                ctr = self._seek_ctr = self.counters["seeks"]
            ctr.add(distance)
        latency += geo.transfer_time_us(nbytes)
        self._head_lba = lba + -(-nbytes // SECTOR_BYTES)
        return latency

    # -- host I/O ------------------------------------------------------------------

    def read(self, lba: int, nbytes: int) -> float:
        """Read ``nbytes`` at sector ``lba``; returns service time in us."""
        latency = self._service_time_us(lba, nbytes)
        ctrs = self._read_ctrs
        if ctrs is None:
            ctrs = self._read_ctrs = (self.counters["read_ops"],
                                      self.counters["access_time_us"])
        ctrs[0].add(nbytes)
        ctrs[1].add(latency)
        self.clock.consume(self.name, latency)
        if self.tracer is not None:
            now = self.clock._now_us
            self.tracer.record(f"{self.name}.read", now - latency, now,
                               lba=lba, nbytes=nbytes)
        return latency

    def write(self, lba: int, nbytes: int) -> float:
        """Write ``nbytes`` at sector ``lba``; returns service time in us."""
        latency = self._service_time_us(lba, nbytes)
        self.counters.add("write_ops", nbytes)
        self.counters.add("access_time_us", latency)
        self.clock.consume(self.name, latency)
        if self.tracer is not None:
            now = self.clock._now_us
            self.tracer.record(f"{self.name}.write", now - latency, now,
                               lba=lba, nbytes=nbytes)
        return latency

    def trim(self, lba: int, nbytes: int) -> float:
        """TRIM is a no-op on mechanical disks; kept for interface parity."""
        self.counters.add("trim_ops", nbytes)
        return 0.0

    # -- reporting -----------------------------------------------------------------

    @property
    def mean_access_time_us(self) -> float:
        return self.counters["access_time_us"].mean

    def reset_counters(self) -> None:
        self.counters.reset()
