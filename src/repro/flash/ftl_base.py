"""Flash translation layer interface and shared machinery.

An FTL maps *logical page numbers* (lpn) onto physical NAND pages and hides
erase-before-write.  All FTLs here expose the same three operations —
``read``, ``write``, ``trim`` — each returning the **service time in
microseconds**, so the SSD front-end can charge a virtual clock without
knowing which FTL is installed.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.flash.constants import FlashConfig
from repro.flash.gc import GreedyVictimPolicy, VictimPolicy
from repro.flash.nand import NandArray

__all__ = ["FtlStats", "FTL"]


@dataclass
class FtlStats:
    """Operation counters split by origin (host vs background)."""

    host_page_reads: int = 0
    host_page_writes: int = 0
    gc_page_reads: int = 0
    gc_page_writes: int = 0
    block_erases: int = 0
    trimmed_pages: int = 0
    translation_page_reads: int = 0
    translation_page_writes: int = 0
    full_merges: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total_page_writes(self) -> int:
        return self.host_page_writes + self.gc_page_writes + self.translation_page_writes

    @property
    def write_amplification(self) -> float:
        """Physical page writes per host page write (1.0 = no amplification)."""
        if self.host_page_writes == 0:
            return 0.0
        return self.total_page_writes / self.host_page_writes


#: Candidate scores kept per audited GC decision (the full candidate set
#: can be thousands of blocks; the trail keeps the head plus the choice).
_AUDIT_SCORE_CAP = 16


class FTL(ABC):
    """Base class: owns the NAND array, free-block pool and GC plumbing."""

    #: Optional decision audit log (repro.obs.audit), attached by the SSD
    #: front-end / storage hierarchy.  None keeps the GC path free of any
    #: observability dependency — same contract as the device tracer.
    audit = None
    #: Device name stamped into audit records (set alongside ``audit``).
    audit_device = ""

    def __init__(
        self,
        config: FlashConfig,
        victim_policy: VictimPolicy | None = None,
    ) -> None:
        self.config = config
        self.nand = NandArray(config)
        self.victim_policy = victim_policy or GreedyVictimPolicy()
        self.stats = FtlStats()
        self.num_lpns = config.logical_pages
        # Free-block pool: every block starts free.
        self._free_blocks: list[int] = list(range(config.num_blocks - 1, -1, -1))
        self._now_us = 0.0  # advanced by the SSD front-end for age-based policies

    # -- host interface ------------------------------------------------------

    @abstractmethod
    def read(self, lpn: int) -> float:
        """Read one logical page; return service time in us."""

    @abstractmethod
    def write(self, lpn: int) -> float:
        """Write one logical page; return service time in us."""

    @abstractmethod
    def trim(self, lpn: int) -> float:
        """Discard one logical page (TRIM); return service time in us."""

    def set_time(self, now_us: float) -> None:
        """Inform the FTL of current simulated time (for age-based GC)."""
        self._now_us = now_us

    def _check_lpn(self, lpn: int) -> None:
        if not 0 <= lpn < self.num_lpns:
            raise IndexError(f"lpn {lpn} out of range [0, {self.num_lpns})")

    # -- free-block pool -------------------------------------------------------

    @property
    def free_block_count(self) -> int:
        return len(self._free_blocks)

    def _take_free_block(self) -> int:
        if not self._free_blocks:
            raise RuntimeError(
                "NAND out of free blocks — over-provisioning too small or GC broken"
            )
        return self._free_blocks.pop()

    def _release_block(self, block: int) -> None:
        self._free_blocks.append(block)

    def _choose_victim(self, candidates: np.ndarray, origin: str) -> int:
        """Delegate victim selection to the policy, auditing the choice.

        ``origin`` distinguishes foreground GC (inline with a host write)
        from background reclamation.
        """
        victim = self.victim_policy.choose(self.nand, candidates, self._now_us)
        audit = self.audit
        if audit is not None:
            head = candidates[:_AUDIT_SCORE_CAP]
            valid = self.nand.valid_counts
            audit.record(
                "gc.victim", "gc", int(victim),
                device=self.audit_device,
                policy=type(self.victim_policy).__name__,
                origin=origin,
                candidates=int(candidates.size),
                valid_pages=int(valid[victim]),
                # [[block, valid pages], ...] snapshotted by numpy, not
                # assembled row by row on every SSD write.
                scores=np.array((head, valid[head])).T.tolist(),
            )
        return victim

    def _gc_candidates(self, exclude: set[int]) -> np.ndarray:
        """Fully- or partially-written blocks eligible as GC victims."""
        # Only blocks with at least one invalid page are worth reclaiming,
        # and a block with an invalid page has been written (erase zeroes
        # both counters; NandArray.check_invariants states it), so one
        # compare over the per-block count vector is the whole test
        # (exclude is a handful of active blocks).
        mask = self.nand.invalid_counts > 0
        for b in exclude:
            mask[b] = False
        return mask.nonzero()[0]

    # -- reporting ---------------------------------------------------------------

    @property
    def erase_count_total(self) -> int:
        # The running total NandArray.erase_block keeps; check_invariants
        # holds it equal to erase_counts.sum().
        return self.nand.erases

    def utilization(self) -> float:
        """Fraction of logical pages currently mapped (0..1)."""
        return self.mapped_lpn_count() / self.num_lpns

    @abstractmethod
    def mapped_lpn_count(self) -> int:
        """Number of logical pages with live data."""
