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

#: tf - 1 is geometric with this success probability
_TF_P = 0.45
_TF_BUCKETS = 1 << 16


def _geometric_search_table(p: float) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.geometric(p)`` for p >= 1/3 (numpy's search method: one
    uniform ``U``, the first ``X`` with ``U <= sum_X``, sums built by
    ``prod *= q; sum += prod`` from ``sum = prod = p``, transcribed here
    op for op) as a table over the 2**16 buckets of ``U * 2**16`` (exact).
    A bucket whose first and last double give the same ``X`` holds it;
    the few a sum splits hold 0 and search the sums (scaled, also exact)."""
    q, prod, sums = 1.0 - p, p, [p]
    while sums[-1] < 1.0 - 2.0**-53:  # the largest U numpy can draw
        prod *= q
        sums.append(sums[-1] + prod)
    sums = np.array(sums)
    edges = np.arange(_TF_BUCKETS + 1) / _TF_BUCKETS
    first = np.searchsorted(sums, edges[:-1]) + 1
    last = np.searchsorted(sums, np.nextafter(edges[1:], 0.0)) + 1
    return sums * _TF_BUCKETS, np.where(first == last, first, 0)


_TF_SUMS, _TF_TABLE = _geometric_search_table(_TF_P)


def _draw_geometric(rng: np.random.Generator, size: int) -> np.ndarray:
    """``rng.geometric(p=0.45, size=size)``: the same int64 values from
    the same ``size`` doubles of the bit stream, at ``rng.random``'s price."""
    u = rng.random(size)
    u *= _TF_BUCKETS
    x = _TF_TABLE[u.astype(np.intp)]
    split = np.flatnonzero(x == 0)
    if split.size:
        x[split] = np.searchsorted(_TF_SUMS, u[split]) + 1
    return x


@dataclass(frozen=True, eq=False)
class PostingList:
    """An immutable frequency-sorted posting list; equal means equal
    term ids, dtypes and contents."""

    term_id: int
    doc_ids: np.ndarray  # int64, aligned with tfs
    tfs: np.ndarray      # int32, non-increasing

    def __post_init__(self) -> None:
        if self.doc_ids.shape != self.tfs.shape:
            raise ValueError("doc_ids and tfs must be parallel arrays")
        if (self.tfs[1:] > self.tfs[:-1]).any():
            raise ValueError("tfs must be sorted non-increasing (frequency-sorted)")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PostingList):
            return NotImplemented
        return (self.term_id == other.term_id
                and self.doc_ids.dtype == other.doc_ids.dtype
                and self.tfs.dtype == other.tfs.dtype
                and np.array_equal(self.doc_ids, other.doc_ids)
                and np.array_equal(self.tfs, other.tfs))

    def __hash__(self) -> int:
        return hash((self.term_id, len(self)))

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
    dropped and regenerated at will (lazy materialisation).  The contract
    is the generator's bit stream, consumed in the same order and amount,
    and the values derived from it; how they are computed (the tf draw is
    a table lookup, not ``rng.geometric``) may change only in ways that
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
        doc_ids = rng.permutation(num_docs)[:doc_freq]
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
        doc_ids = rng.permutation(cand)[:doc_freq]
    # Descending tf, ascending doc id: one sort of (-tf << 32) + doc_id, built
    # in the draw's int64 buffer.  Doc ids are distinct and below 2**32, so
    # keys are distinct and the order is the one lexsort((doc_ids, -tfs)) gives.
    key = _draw_geometric(rng, doc_freq)
    key += 1
    key <<= 32
    np.subtract(doc_ids, key, out=key)
    key.sort()
    doc_ids = key & 0xFFFFFFFF
    key >>= 32
    np.negative(key, out=key)
    return PostingList(term_id, doc_ids, key.astype(np.int32))
