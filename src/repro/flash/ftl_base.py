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

from repro._row import pairs, shape
from repro.flash.constants import FlashConfig
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
#: An audited GC decision's inputs (repro._row); ``scores`` is a pair
#: column of block ids and valid-page counts, both int32 like the
#: NandArray counters the ids index.
_GC_VICTIM = shape(("device", "policy", "origin", "candidates", "valid_pages",
                    "scores"))
_GC_SCORES = pairs("i", "i")
#: The ``policy`` field of every ``gc.victim`` record: greedy is the one
#: victim rule, and the name keeps the audit trail's format.
_GC_POLICY = "GreedyVictimPolicy"


class FTL(ABC):
    """Base class: owns the NAND array, free-block pool and GC plumbing."""

    #: Optional decision audit log (repro.obs.audit), attached by the SSD
    #: front-end / storage hierarchy.  None keeps the GC path free of any
    #: observability dependency — same contract as the device tracer.
    audit = None
    #: Device name stamped into audit records (set alongside ``audit``).
    audit_device = ""

    def __init__(self, config: FlashConfig) -> None:
        self.config = config
        self.nand = NandArray(config)
        self.stats = FtlStats()
        self.num_lpns = config.logical_pages
        # Free-block pool: every block starts free.
        self._free_blocks: list[int] = list(range(config.num_blocks - 1, -1, -1))

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

    def _gc_victim(self, active: int, origin: str) -> int | None:
        """The block GC reclaims next, or None when no block other than
        ``active`` holds an invalid page.

        Greedy, the one victim rule: the candidate with the fewest valid
        pages, ties to the lowest block.  The whole decision is one frame:
        candidates, choice and the ``gc.victim`` audit record.  ``origin``
        distinguishes foreground GC (inline with a host write) from
        background reclamation.  The lowest dead block other than
        ``active`` is that choice without a scan: a dead block has the
        fewest valid pages possible (0) and ``argmin`` breaks ties to the
        lowest block.  The scan runs when no such block exists, and to
        count the candidates and list their head in the audit record.
        """
        nand = self.nand
        audit = self.audit
        victim = None
        dead = nand.dead
        if dead:
            victim = min(dead)
            if victim == active:
                victim = min(dead - {active}) if len(dead) > 1 else None
            if audit is None and victim is not None:
                return victim
        # Only blocks with at least one invalid page are worth reclaiming,
        # and a block with an invalid page has been written (erase zeroes
        # both counters; NandArray.check_invariants states it), so one
        # compare over the per-block count vector is the whole test.
        mask = nand.invalid_counts > 0
        mask[active] = False
        candidates = mask.nonzero()[0]
        if not candidates.size:
            return None
        valid = nand.valid_counts
        if victim is None:
            victim = int(candidates[valid[candidates].argmin()])
        if audit is not None:
            head = candidates[:_AUDIT_SCORE_CAP]
            audit.append("gc.victim", "gc", int(victim), _GC_VICTIM((
                self.audit_device, _GC_POLICY, origin, int(candidates.size),
                int(valid[victim]),
                _GC_SCORES(b"".join((head.astype(np.int32),
                                     valid[head]))))))
        return victim

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
