"""Block-device protocol and the DRAM latency model.

All tiers speak the same interface — ``read``/``write``/``trim`` over
(lba, nbytes) returning microseconds — so the cache manager and workload
drivers are agnostic to what backs each level.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro._row import shape
from repro.sim.clock import VirtualClock
from repro.sim.counters import CounterSet

__all__ = ["BlockDevice", "DramModel", "NullDevice"]

# A DRAM access's leaf-span attributes (repro._row).
_NBYTES = shape(("nbytes",))

#: DRAM access cost: fixed software overhead (us) plus a bandwidth term.
ACCESS_OVERHEAD_US = 0.2
BANDWIDTH_GB_S = 10.0


@runtime_checkable
class BlockDevice(Protocol):
    """Minimal interface every storage tier implements."""

    name: str
    counters: CounterSet

    @property
    def capacity_bytes(self) -> int: ...

    def read(self, lba: int, nbytes: int) -> float: ...

    def write(self, lba: int, nbytes: int) -> float: ...

    def trim(self, lba: int, nbytes: int) -> float: ...


class DramModel:
    """Main-memory access cost model.

    Memory is not sector-addressed, but modelling it behind the same
    interface lets Table I's time costs (T1, T2, ...) fall out of uniform
    accounting.  Cost = fixed software overhead + bandwidth term.
    """

    def __init__(
        self,
        capacity_bytes: int = 2 * 1024**3,
        clock: VirtualClock | None = None,
        name: str = "dram",
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self._capacity = capacity_bytes
        self.clock = clock or VirtualClock()
        self.name = name
        self.counters = CounterSet()
        #: Optional span tracer (repro.obs); None keeps the hot path bare.
        self.tracer = None
        # Leaf-span names, formed once, not per access.
        self._read_name = f"{name}.read"
        self._write_name = f"{name}.write"
        # (read_ops, access_time_us), resolved at the first read as
        # SimulatedSSD does: no read, no change to the counter snapshot.
        self._read_ctrs = None

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    def _cost_us(self, nbytes: int) -> float:
        """The validating form: ``read`` inlines this and calls it to raise."""
        if nbytes < 0:
            raise ValueError("nbytes cannot be negative")
        return ACCESS_OVERHEAD_US + nbytes / (BANDWIDTH_GB_S * 1e3)

    def read(self, lba: int, nbytes: int) -> float:
        if nbytes < 0:
            self._cost_us(nbytes)  # raises
        latency = ACCESS_OVERHEAD_US + nbytes / (BANDWIDTH_GB_S * 1e3)
        ctrs = self._read_ctrs
        if ctrs is None:
            ctrs = self._read_ctrs = (self.counters["read_ops"],
                                      self.counters["access_time_us"])
        ops, busy = ctrs
        ops.count += 1
        ops.total += nbytes
        busy.count += 1
        busy.total += latency
        self.clock.consume(self.name, latency)
        if self.tracer is not None:
            now = self.clock._now_us
            self.tracer.leaf(self._read_name, now - latency, now,
                             _NBYTES((nbytes,)))
        return latency

    def write(self, lba: int, nbytes: int) -> float:
        latency = self._cost_us(nbytes)
        self.counters.add("write_ops", nbytes)
        self.counters.add("access_time_us", latency)
        self.clock.consume(self.name, latency)
        if self.tracer is not None:
            now = self.clock._now_us
            self.tracer.leaf(self._write_name, now - latency, now,
                             _NBYTES((nbytes,)))
        return latency

    def trim(self, lba: int, nbytes: int) -> float:
        return 0.0


class NullDevice:
    """A zero-latency, infinite device — useful as a test double."""

    name = "null"
    capacity_bytes = 2**62

    def __init__(self) -> None:
        self.counters = CounterSet()
        self.tracer = None

    def read(self, lba: int, nbytes: int) -> float:
        self.counters.add("read_ops", nbytes)
        return 0.0

    def write(self, lba: int, nbytes: int) -> float:
        self.counters.add("write_ops", nbytes)
        return 0.0

    def trim(self, lba: int, nbytes: int) -> float:
        self.counters.add("trim_ops", nbytes)
        return 0.0
