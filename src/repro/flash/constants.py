"""Flash geometry and timing configuration.

Defaults follow the paper's Table III (simulated SSD): page-mapping FTL,
2 KB pages, 128 KB blocks (64 pages), page read 32.725 us, page write
101.475 us, block erase 1.5 ms.  Section VI additionally quotes the
rounder 20/250 us figures used in the analytic discussion; both presets
are provided.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["FlashConfig", "SECTOR_BYTES"]

SECTOR_BYTES = 512
"""Logical sector size used by the SSD's block-device front-end."""


@dataclass(frozen=True)
class FlashConfig:
    """Geometry, timing and provisioning of a simulated SSD.

    Parameters
    ----------
    page_bytes:
        NAND page size.  The paper uses 2 KB.
    pages_per_block:
        Pages per erase block.  The paper uses 64 (128 KB blocks).
    num_blocks:
        Total physical blocks, including over-provisioned ones.
    overprovision:
        Fraction of physical capacity hidden from the logical address
        space and reserved for garbage collection (0 <= x < 1).
    read_us / write_us / erase_us:
        Service time of one page read / one page program / one block erase.
    channels:
        Independent flash channels striping large host transfers.  A span
        of N pages completes in ceil(N / channels) page times, matching
        the multi-channel controllers of the paper's Intel SSD 320 class.
        Single-page operations and GC copy-back stay serial.
    planes_per_channel:
        NAND planes per channel.  Striping (``channels``) models how one
        large transfer is split; ``channels * planes_per_channel`` is the
        number of *independent host requests* the device can service at
        once — the lane count the discrete-event kernel uses for the
        device's service queue.
    gc_free_block_threshold:
        Garbage collection starts when the number of free blocks drops to
        this value.  Must be >= 1 so a copy destination always exists.
    """

    page_bytes: int = 2048
    pages_per_block: int = 64
    num_blocks: int = 1024
    overprovision: float = 0.07
    read_us: float = 32.725
    write_us: float = 101.475
    erase_us: float = 1500.0
    channels: int = 4
    planes_per_channel: int = 1
    gc_free_block_threshold: int = 2
    name: str = field(default="table3", compare=False)

    def __post_init__(self) -> None:
        if self.page_bytes <= 0 or self.page_bytes % SECTOR_BYTES:
            raise ValueError(f"page_bytes must be a positive multiple of {SECTOR_BYTES}")
        if self.pages_per_block <= 0:
            raise ValueError("pages_per_block must be positive")
        if self.num_blocks <= self.gc_free_block_threshold:
            raise ValueError("num_blocks must exceed gc_free_block_threshold")
        if not 0.0 <= self.overprovision < 1.0:
            raise ValueError(f"overprovision must be in [0, 1): {self.overprovision}")
        if min(self.read_us, self.write_us, self.erase_us) < 0:
            raise ValueError("latencies must be non-negative")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")
        if self.planes_per_channel < 1:
            raise ValueError("planes_per_channel must be >= 1")
        if self.gc_free_block_threshold < 1:
            raise ValueError("gc_free_block_threshold must be >= 1")

    # -- derived geometry -------------------------------------------------

    @property
    def block_bytes(self) -> int:
        """Erase-block size in bytes (128 KB with the defaults)."""
        return self.page_bytes * self.pages_per_block

    @property
    def total_pages(self) -> int:
        """Total physical pages."""
        return self.num_blocks * self.pages_per_block

    @property
    def physical_bytes(self) -> int:
        """Raw physical capacity in bytes."""
        return self.total_pages * self.page_bytes

    @property
    def logical_pages(self) -> int:
        """Number of logical pages exposed after over-provisioning."""
        usable_blocks = int(self.num_blocks * (1.0 - self.overprovision))
        return max(1, usable_blocks) * self.pages_per_block

    @property
    def logical_bytes(self) -> int:
        """Logical (user-visible) capacity in bytes."""
        return self.logical_pages * self.page_bytes

    @property
    def sectors_per_page(self) -> int:
        return self.page_bytes // SECTOR_BYTES

    @property
    def logical_sectors(self) -> int:
        return self.logical_pages * self.sectors_per_page

    # -- presets -----------------------------------------------------------

    @classmethod
    def table3(cls, **overrides) -> "FlashConfig":
        """The paper's Table III simulation parameters."""
        return cls(name="table3", **overrides)

    @classmethod
    def section6(cls, **overrides) -> "FlashConfig":
        """The round 20/250 us figures quoted in Section VI."""
        return cls(
            read_us=20.0,
            write_us=250.0,
            erase_us=1500.0,
            name="section6",
            **overrides,
        )
