"""Assembly of the paper's three-tier storage stack (Fig. 2).

A :class:`StorageHierarchy` owns one shared :class:`VirtualClock` and the
three devices: DRAM (L1 cache), SSD (L2 cache) and HDD (index storage).
The SSD tier is optional so the same object expresses the paper's
one-level-cache baselines, and the index store can be placed on either the
HDD or a second SSD (the "1LC-SSD" configurations of Fig. 15/16/18).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.flash.constants import FlashConfig
from repro.flash.ssd import SimulatedSSD
from repro.hdd.disk import SimulatedHDD
from repro.hdd.geometry import DiskGeometry
from repro.sim.clock import VirtualClock
from repro.storage.device import BlockDevice, DramModel

__all__ = ["HierarchyConfig", "StorageHierarchy"]


@dataclass
class HierarchyConfig:
    """Capacity and backing choices for a storage stack.

    ``index_on`` selects where the inverted-index files live ("hdd" or
    "ssd"), matching the paper's "HDD"/"SSD" legend entries.  ``ssd_cache``
    enables the L2 SSD cache tier ("2LC" vs "1LC").
    """

    memory_bytes: int = 512 * 1024**2
    ssd_cache: bool = True
    ssd_config: FlashConfig = field(default_factory=FlashConfig)
    index_on: str = "hdd"
    hdd_geometry: DiskGeometry = field(default_factory=DiskGeometry)
    #: FlashConfig for an SSD-resident index store (index_on == "ssd").
    index_ssd_config: FlashConfig | None = None

    def __post_init__(self) -> None:
        if self.index_on not in ("hdd", "ssd"):
            raise ValueError(f"index_on must be 'hdd' or 'ssd', got {self.index_on!r}")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")


class StorageHierarchy:
    """Devices of one index server sharing a virtual clock."""

    def __init__(self, config: HierarchyConfig | None = None) -> None:
        self.config = config or HierarchyConfig()
        self.clock = VirtualClock()
        self.memory = DramModel(
            capacity_bytes=self.config.memory_bytes, clock=self.clock,
            name="dram",
        )
        #: Channel CPU work is consumed on (scoring/merging in
        #: core.manager); charged nowhere — CPU attribution stays the
        #: response-time residual — but under a kernel it becomes a real
        #: contended resource.
        self.cpu_channel = "cpu"
        self.ssd: SimulatedSSD | None = None
        if self.config.ssd_cache:
            self.ssd = SimulatedSSD(
                config=self.config.ssd_config, clock=self.clock,
                name="ssd-cache",
            )
        if self.config.index_on == "hdd":
            self.index_store: BlockDevice = SimulatedHDD(
                geometry=self.config.hdd_geometry, clock=self.clock,
                name="index-hdd",
            )
        else:
            index_cfg = self.config.index_ssd_config or self.config.ssd_config
            self.index_store = SimulatedSSD(
                config=index_cfg, clock=self.clock,
                name="index-ssd", ftl="page",
            )

    def attach_kernel(self, kernel, cpu_lanes: int = 1) -> None:
        """Register this hierarchy's devices as kernel service resources.

        Lane counts come from the devices themselves (``service_lanes``:
        NAND channels x planes for SSDs, 1 for the HDD's single actuator);
        DRAM gets ``cpu_lanes`` since a memory access occupies the core
        issuing it.  Also binds the kernel to the hierarchy's clock so device
        ``consume`` calls route through it inside tasks.
        """
        kernel.add_resource(self.memory.name, lanes=cpu_lanes)
        kernel.add_resource(self.cpu_channel, lanes=cpu_lanes)
        if self.ssd is not None:
            kernel.add_resource(self.ssd.name, lanes=self.ssd.service_lanes)
        kernel.add_resource(
            self.index_store.name,
            lanes=getattr(self.index_store, "service_lanes", 1),
        )
        if self.clock.kernel is not kernel:
            self.clock.bind_kernel(kernel)

    @property
    def levels(self) -> int:
        """2 when the SSD cache tier is present, else 1 (paper's 2LC/1LC)."""
        return 2 if self.ssd is not None else 1

    def attach_tracer(self, tracer) -> None:
        """Hook every device's accesses into a span tracer (repro.obs).

        Pass ``None`` to detach.  Device reads/writes then land as leaf
        spans nested under whatever span the caller holds open.  A
        disabled tracer normalizes to None so device hot paths stay bare.
        """
        if tracer is not None and not getattr(tracer, "enabled", True):
            tracer = None
        self.memory.tracer = tracer
        if self.ssd is not None:
            self.ssd.tracer = tracer
        self.index_store.tracer = tracer

    def attach_audit(self, audit) -> None:
        """Hook the flash devices' GC decisions into an audit log.

        Mirrors :meth:`attach_tracer`: pass ``None`` to detach, and a
        disabled audit log normalizes to None so the FTL hot paths keep
        a single attribute check.  Only flash devices take part — DRAM
        and HDD make no placement decisions worth auditing.
        """
        if audit is not None and not getattr(audit, "enabled", True):
            audit = None
        if self.ssd is not None:
            self.ssd.audit = audit
        if hasattr(self.index_store, "ftl"):
            self.index_store.audit = audit

    def describe(self) -> str:
        """Short configuration label in the paper's legend style."""
        cache = f"{self.levels}LC"
        index = "HDD" if self.config.index_on == "hdd" else "SSD"
        return f"{cache}-{index}"

    def busy_breakdown_us(self) -> dict[str, float]:
        """Busy time accumulated per device channel."""
        return {ch: self.clock.busy_us(ch) for ch in self.clock.channels()}
