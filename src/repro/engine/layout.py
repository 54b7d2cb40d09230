"""On-disk index layout: term id -> LBA extent on the index store.

Lays posting lists out contiguously in term-id order (Lucene writes its
.frq/.prx files term by term), aligned to 512 B sectors.  The layout is
what turns the processor's logical list reads into the wide-scatter LBA
pattern of Fig. 1: consecutive query terms live far apart, and skip reads
jump within one extent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.corpus import CorpusStats
from repro.engine.postings import POSTING_BYTES

__all__ = ["TermExtent", "IndexLayout"]

SECTOR_BYTES = 512
#: I/O granularity for partial list reads; the paper divides lists at
#: flash-block granularity (128 KB).
CHUNK_BYTES = 128 * 1024


@dataclass(frozen=True)
class TermExtent:
    """Contiguous on-disk location of one term's posting list."""

    term_id: int
    lba: int
    nbytes: int

    @property
    def sectors(self) -> int:
        return -(-self.nbytes // SECTOR_BYTES)


class IndexLayout:
    """Sector-aligned extents for every posting list.

    Parameters
    ----------
    stats:
        Corpus statistics providing per-term list sizes.

    The index region starts at sector 0, and lists are read in
    ``CHUNK_BYTES`` chunks.
    """

    def __init__(self, stats: CorpusStats, sizes_bytes=None) -> None:
        if sizes_bytes is None:
            sizes = stats.doc_freqs * POSTING_BYTES
        else:
            sizes = np.asarray(sizes_bytes, dtype=np.int64)
            if sizes.shape != stats.doc_freqs.shape:
                raise ValueError("sizes_bytes length must match vocabulary size")
            if (sizes <= 0).any():
                raise ValueError("sizes_bytes must be positive")
        sectors = -(-sizes // SECTOR_BYTES)
        starts = np.concatenate([[0], np.cumsum(sectors)[:-1]])
        self._lbas = starts.astype(np.int64)
        self._sizes = sizes.astype(np.int64)
        self.total_sectors = int(sectors.sum())

    def __len__(self) -> int:
        return int(self._lbas.size)

    @property
    def total_bytes(self) -> int:
        """Total on-disk index size."""
        return int(self._sizes.sum())

    def extent(self, term_id: int) -> TermExtent:
        if not 0 <= term_id < len(self):
            raise KeyError(f"term id {term_id} out of range")
        return TermExtent(term_id, int(self._lbas[term_id]), int(self._sizes[term_id]))

    def chunk_reads(self, term_id: int, needed_bytes: int) -> list[tuple[int, int]]:
        """The (lba, nbytes) device reads for the traversed part of a list.

        A traversal that needs ``needed_bytes`` of the frequency-sorted
        prefix reads whole chunks.  The accesses mimic Lucene's skip-list
        behaviour: the first chunk is always read, and later chunks are
        issued as separate (non-coalesced) requests — producing the
        "skipped reads" of Section III.
        """
        if not 0 <= term_id < self._lbas.size:
            self.extent(term_id)  # raises
        base = int(self._lbas[term_id])
        nbytes = int(self._sizes[term_id])
        chunk = CHUNK_BYTES
        needed = max(1, min(needed_bytes, nbytes))
        n_chunks = -(-needed // chunk)
        reads: list[tuple[int, int]] = []
        for i in range(n_chunks):
            off = i * chunk
            size = min(chunk, nbytes - off)
            if size <= 0:
                break
            reads.append((base + off // SECTOR_BYTES, size))
        return reads
