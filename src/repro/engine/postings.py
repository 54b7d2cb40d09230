"""Posting lists in the filtered-vector-model layout.

Each posting is (doc id, term frequency).  Lists are stored sorted by
**descending tf** — the frequency-sorted layout of Saraiva et al. [18]
the paper builds on — so a prefix of the list contains the documents where
the term matters most, and early termination can stop after a fraction of
the list (the utilization rate PU).

Skip pointers are kept every ``SKIP_INTERVAL`` postings, giving the
skip-order read pattern Section III observes in Lucene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["POSTING_BYTES", "SKIP_INTERVAL", "PostingList", "generate_posting_list"]

#: on-disk bytes per posting: 4 B doc id + 2 B tf + 2 B amortised skip data
POSTING_BYTES = 8

#: postings between consecutive skip pointers (Lucene 3.x default is 16)
SKIP_INTERVAL = 16


@dataclass(frozen=True)
class PostingList:
    """An immutable frequency-sorted posting list."""

    term_id: int
    doc_ids: np.ndarray  # int64, aligned with tfs
    tfs: np.ndarray      # int32, non-increasing

    def __post_init__(self) -> None:
        if self.doc_ids.shape != self.tfs.shape:
            raise ValueError("doc_ids and tfs must be parallel arrays")
        if self.tfs.size and (np.diff(self.tfs) > 0).any():
            raise ValueError("tfs must be sorted non-increasing (frequency-sorted)")

    def __len__(self) -> int:
        return int(self.doc_ids.size)

    @property
    def nbytes(self) -> int:
        """On-disk size (the quantity plotted in Fig. 3b)."""
        return len(self) * POSTING_BYTES

    def prefix(self, fraction: float) -> "PostingList":
        """The first ``fraction`` of the list (what early termination reads)."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1]: {fraction}")
        n = int(round(len(self) * fraction))
        n = max(1, n) if len(self) else 0
        return PostingList(self.term_id, self.doc_ids[:n], self.tfs[:n])

    def skip_offsets(self) -> np.ndarray:
        """Byte offsets of the skip entry points within the list."""
        n_skips = len(self) // SKIP_INTERVAL
        return np.arange(1, n_skips + 1) * (SKIP_INTERVAL * POSTING_BYTES)


def generate_posting_list(
    term_id: int,
    doc_freq: int,
    num_docs: int,
    seed: int,
) -> PostingList:
    """Deterministically synthesise a term's posting list.

    Doc ids are a uniform sample of the collection; tf values follow a
    shifted geometric distribution (most occurrences are 1-3, rare spikes),
    then the list is sorted by descending tf with ascending-doc-id
    tie-break, matching the frequency-sorted layout.

    The (term_id, seed) pair fully determines the output, so lists can be
    dropped and regenerated at will (lazy materialisation).  The random
    draws (kind, order and size) are the contract: everything after them
    is deterministic post-processing and may change only in ways that
    leave the arrays identical.  ``num_docs`` may not exceed ``2**32`` —
    the ordering sorts one int64 key with the doc id in its low half.
    """
    if doc_freq < 0:
        raise ValueError("doc_freq cannot be negative")
    if doc_freq > num_docs:
        raise ValueError(f"doc_freq {doc_freq} exceeds num_docs {num_docs}")
    if num_docs > 2**32:
        raise ValueError(f"num_docs {num_docs} exceeds 2**32 (packed sort key)")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(term_id,)))
    if doc_freq == 0:
        return PostingList(
            term_id, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
        )
    if doc_freq > num_docs // 2:
        doc_ids = rng.permutation(num_docs)[:doc_freq].astype(np.int64)
    else:
        # Oversample + de-duplicate is far cheaper than
        # choice(replace=False) for sparse lists; top up in the rare
        # shortfall case.  Marking a num_docs-sized bitmap and reading the
        # set positions back gives the sorted distinct ids np.unique would,
        # without a comparison sort.
        seen = np.zeros(num_docs, dtype=np.bool_)
        seen[rng.integers(0, num_docs, size=int(doc_freq * 1.3) + 8)] = True
        cand = np.flatnonzero(seen)
        while cand.size < doc_freq:
            seen[rng.integers(0, num_docs, size=doc_freq)] = True
            cand = np.flatnonzero(seen)
        doc_ids = rng.permutation(cand)[:doc_freq].astype(np.int64)
    # Descending tf, ascending doc id: one sort of (-tf << 32) + doc_id.
    # Doc ids are distinct and below 2**32, so keys are distinct and the
    # order is the one lexsort((doc_ids, -tfs)) gives.
    tfs = (1 + rng.geometric(p=0.45, size=doc_freq)).astype(np.int32)
    key = (-tfs.astype(np.int64) << 32) + doc_ids
    key.sort()
    return PostingList(
        term_id, key & 0xFFFFFFFF, (-(key >> 32)).astype(np.int32)
    )
