"""Sector-addressed SSD device built on a pluggable FTL.

This is the component the rest of the system talks to: the cache manager's
L2 store, the "index on SSD" configuration of Fig. 15/16/18, and the
trace-replay target.  It converts (lba, nbytes) host requests into per-page
FTL operations, accumulates service time on a virtual clock, and exposes
the erase-count and mean-access-time series plotted in Fig. 19.
"""

from __future__ import annotations

from typing import Callable

from repro._row import shape
from repro.flash.constants import SECTOR_BYTES, FlashConfig
from repro.flash.ftl_base import FTL
from repro.flash.ftl_block import BlockMappingFTL
from repro.flash.ftl_dftl import DFTL
from repro.flash.ftl_fast import FastFTL
from repro.flash.ftl_page import PageMappingFTL
from repro.flash import wear as flash_wear
from repro.flash.wear import WearReport, wear_report
from repro.sim.clock import VirtualClock
from repro.sim.counters import CounterSet

__all__ = ["SimulatedSSD", "FTL_FACTORIES"]

FTL_FACTORIES: dict[str, Callable[[FlashConfig], FTL]] = {
    "page": PageMappingFTL,
    "block": BlockMappingFTL,
    "fast": FastFTL,
    "dftl": DFTL,
}

# A host access's leaf-span attributes (repro._row); a write that set off
# foreground GC erases also carries their count.
_ACCESS = shape(("lba", "nbytes", "pages"))
_ACCESS_GC = shape(("lba", "nbytes", "pages", "gc_erases"))


class SimulatedSSD:
    """A block device: page-granular FTL behind a 512 B-sector interface.

    Parameters
    ----------
    config:
        Flash geometry/timing (defaults to the paper's Table III).
    ftl:
        Either an :class:`~repro.flash.ftl_base.FTL` instance or one of the
        factory names ``page`` (paper baseline), ``block``, ``fast``,
        ``dftl``.
    clock:
        Virtual clock to charge; a private one is created if omitted.
    """

    def __init__(
        self,
        config: FlashConfig | None = None,
        ftl: FTL | str = "page",
        clock: VirtualClock | None = None,
        name: str = "ssd",
    ) -> None:
        self.config = config or FlashConfig()
        if isinstance(ftl, str):
            try:
                factory = FTL_FACTORIES[ftl]
            except KeyError:
                raise ValueError(
                    f"unknown FTL {ftl!r}; choose from {sorted(FTL_FACTORIES)}"
                ) from None
            self.ftl = factory(self.config)
        else:
            if ftl.config is not self.config and ftl.config != self.config:
                raise ValueError("FTL was built with a different FlashConfig")
            self.ftl = ftl
        self.clock = clock or VirtualClock()
        self.name = name
        self.counters = CounterSet()
        #: Optional span tracer (repro.obs); None keeps the hot path bare.
        self.tracer = None
        # Leaf-span names, formed once, not per access.
        self._read_name = f"{name}.read"
        self._write_name = f"{name}.write"
        self.ftl.audit_device = name
        # Hot-path caches: the FTL and clock are fixed for the device's
        # lifetime, so the span entry points are resolved once.  Counter
        # refs are resolved lazily (first op of each type) so devices
        # that never see an op type keep identical counter snapshots.
        self._read_span = getattr(self.ftl, "read_span", None)
        self._write_span = getattr(self.ftl, "write_span", None)
        self._trim_span = getattr(self.ftl, "trim_span", None)
        self._page_bytes = self.config.page_bytes
        self._capacity_bytes = self.config.logical_bytes
        self._read_ctrs = None
        self._write_ctrs = None
        self._trim_ctrs = None

    @property
    def audit(self):
        """Decision audit hook, forwarded to the FTL's GC (repro.obs)."""
        return self.ftl.audit

    @audit.setter
    def audit(self, audit) -> None:
        self.ftl.audit = audit
        self.ftl.audit_device = self.name

    # -- capacity ------------------------------------------------------------

    @property
    def service_lanes(self) -> int:
        """Concurrent host requests the device can serve: one per
        channel x plane pair (the kernel's lane count for this device)."""
        return self.config.channels * self.config.planes_per_channel

    @property
    def capacity_bytes(self) -> int:
        """User-visible capacity."""
        return self._capacity_bytes

    @property
    def num_sectors(self) -> int:
        return self.config.logical_sectors

    # -- host I/O --------------------------------------------------------------

    def _page_span(self, lba: int, nbytes: int) -> range:
        """Logical page numbers touched by ``nbytes`` starting at sector ``lba``.

        The validating form: :meth:`read` and :meth:`write` do the same
        arithmetic inline and come here only to raise.
        """
        if lba < 0 or nbytes <= 0:
            raise ValueError(f"invalid request lba={lba} nbytes={nbytes}")
        start_byte = lba * SECTOR_BYTES
        end_byte = start_byte + nbytes
        if end_byte > self.capacity_bytes:
            raise ValueError(
                f"request [{start_byte}, {end_byte}) exceeds capacity "
                f"{self.capacity_bytes}"
            )
        first = start_byte // self.config.page_bytes
        last = (end_byte - 1) // self.config.page_bytes
        return range(first, last + 1)

    def read(self, lba: int, nbytes: int) -> float:
        """Read ``nbytes`` at sector ``lba``; returns service time in us."""
        start_byte = lba * SECTOR_BYTES
        end_byte = start_byte + nbytes
        if lba < 0 or nbytes <= 0 or end_byte > self._capacity_bytes:
            self._page_span(lba, nbytes)  # raises
        first = start_byte // self._page_bytes
        npages = (end_byte - 1) // self._page_bytes - first + 1
        read_span = self._read_span
        if read_span is not None:
            latency = read_span(first, npages)
        else:
            latency = 0.0
            for lpn in range(first, first + npages):
                latency += self.ftl.read(lpn)
        ctrs = self._read_ctrs
        if ctrs is None:
            ctrs = self._read_ctrs = (self.counters["read_ops"],
                                      self.counters["read_pages"],
                                      self.counters["access_time_us"])
        # The three Counter.add calls, inline: every L2 result hit reads.
        ops, pages, busy = ctrs
        ops.count += 1
        ops.total += nbytes
        pages.count += npages
        busy.count += 1
        busy.total += latency
        self.clock.consume(self.name, latency)
        if self.tracer is not None:
            now = self.clock._now_us
            self.tracer.leaf(self._read_name, now - latency, now,
                             _ACCESS((lba, nbytes, npages)))
        return latency

    def write(self, lba: int, nbytes: int) -> float:
        """Write ``nbytes`` at sector ``lba``; returns service time in us."""
        start_byte = lba * SECTOR_BYTES
        end_byte = start_byte + nbytes
        if lba < 0 or nbytes <= 0 or end_byte > self._capacity_bytes:
            self._page_span(lba, nbytes)  # raises
        first = start_byte // self._page_bytes
        npages = (end_byte - 1) // self._page_bytes - first + 1
        tr = self.tracer
        erases_before = self.ftl.nand.erases if tr is not None else 0
        write_span = self._write_span
        if write_span is not None:
            latency = write_span(first, npages)
        else:
            latency = 0.0
            for lpn in range(first, first + npages):
                latency += self.ftl.write(lpn)
        ctrs = self._write_ctrs
        if ctrs is None:
            ctrs = self._write_ctrs = (self.counters["write_ops"],
                                       self.counters["write_pages"],
                                       self.counters["access_time_us"])
        # The three Counter.add calls, inline, as in read.
        ops, pages, busy = ctrs
        ops.count += 1
        ops.total += nbytes
        pages.count += npages
        busy.count += 1
        busy.total += latency
        self.clock.consume(self.name, latency)
        if tr is not None:
            # FTL activity rides on the span: GC erases triggered by this
            # host write show up as an attribute, not a guess.
            now = self.clock._now_us
            erased = self.ftl.nand.erases - erases_before
            tr.leaf(self._write_name, now - latency, now,
                    _ACCESS_GC((lba, nbytes, npages, erased)) if erased
                    else _ACCESS((lba, nbytes, npages)))
        return latency

    def trim(self, lba: int, nbytes: int) -> float:
        """TRIM ``nbytes`` at sector ``lba``.  Partial pages are kept."""
        start_byte = lba * SECTOR_BYTES
        end_byte = start_byte + nbytes
        # Only whole pages strictly inside the range may be discarded.
        first = -(-start_byte // self._page_bytes)
        last = end_byte // self._page_bytes
        latency = 0.0
        if last > first:
            trim_span = self._trim_span
            if trim_span is not None:
                latency = trim_span(first, last - first)
            else:
                for lpn in range(first, last):
                    latency += self.ftl.trim(lpn)
        ctrs = self._trim_ctrs
        if ctrs is None:
            ctrs = self._trim_ctrs = (self.counters["trim_ops"],
                                      self.counters["access_time_us"])
        # The two Counter.add calls, inline, as in read.
        ops, busy = ctrs
        ops.count += 1
        ops.total += nbytes
        busy.count += 1
        busy.total += latency
        self.clock.consume(self.name, latency)
        return latency

    def idle_collect(self, budget_us: float) -> float:
        """Run background GC during host idle time.

        The time is charged to the ``<name>-bg`` busy channel but does
        not advance the clock: it overlaps with host think time.  Erase
        wear is accounted normally.  Returns the idle time consumed
        (0.0 when the installed FTL has no background GC).
        """
        bg = getattr(self.ftl, "background_collect", None)
        if bg is None:
            return 0.0
        used = bg(budget_us)
        self.counters.add("bg_gc_us", used)
        self.clock.charge(f"{self.name}-bg", used)
        if self.tracer is not None and used > 0:
            # Overlapped with host think time: zero-duration marker span.
            now = self.clock._now_us
            self.tracer.record(f"{self.name}.bg-gc", now, now, used_us=used)
        return used

    # -- reporting -----------------------------------------------------------------

    @property
    def erase_count(self) -> int:
        """Total block erasures so far (Fig. 19a's y-axis)."""
        return self.ftl.erase_count_total

    @property
    def mean_access_time_us(self) -> float:
        """Mean service time per host op so far (Fig. 19b's y-axis)."""
        return self.counters["access_time_us"].mean

    def wear(self) -> WearReport:
        """Wear over the rated ``repro.flash.wear.DEFAULT_ENDURANCE_CYCLES``
        (read when called)."""
        return wear_report(self.ftl.nand.erase_counts,
                           flash_wear.DEFAULT_ENDURANCE_CYCLES)

    def reset_counters(self) -> None:
        """Zero host-op counters (erase counts and mappings persist)."""
        self.counters.reset()
