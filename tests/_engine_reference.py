"""Scalar references for the engine's array-native hot paths.

``repro.engine.processor.QueryProcessor._score`` and
``repro.engine.postings.generate_posting_list`` are whole-array passes;
these are the implementations they replaced, kept verbatim (the hot
counter aside) as the oracle the equivalence properties in ``test_engine_equivalence.py``
compare against with ``==`` — the array versions promise identical
results, not close ones.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.engine.results import SearchResult


def reference_score(index, top_k: int, plan) -> list[SearchResult]:
    """Per-posting dict accumulation + ``heapq.nlargest``."""
    acc: dict[int, float] = {}
    for demand in plan.demands:
        plist = index.postings(demand.term_id)
        prefix_n = min(demand.postings, len(plist))
        if prefix_n == 0:
            continue
        idf = index.idf(demand.term_id)
        doc_ids = plist.doc_ids[:prefix_n]
        scores = np.sqrt(plist.tfs[:prefix_n].astype(np.float64)) * idf
        for doc, s in zip(doc_ids.tolist(), scores.tolist()):
            acc[doc] = acc.get(doc, 0.0) + s
    top = heapq.nlargest(top_k, acc.items(), key=lambda kv: (kv[1], -kv[0]))
    return [SearchResult(doc_id=d, score=s) for d, s in top]


def reference_generate_posting_list(
    term_id: int,
    doc_freq: int,
    num_docs: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique`` de-duplication + ``np.lexsort`` ordering.

    Returns the ``(doc_ids, tfs)`` arrays at the width the generator
    once held them in, int64 and int32, so a comparison checks values
    across the narrowing to ``PostingList``'s dtypes."""
    if doc_freq < 0:
        raise ValueError("doc_freq cannot be negative")
    if doc_freq > num_docs:
        raise ValueError(f"doc_freq {doc_freq} exceeds num_docs {num_docs}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(term_id,)))
    if doc_freq == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32)
    if doc_freq > num_docs // 2:
        doc_ids = rng.permutation(num_docs)[:doc_freq].astype(np.int64)
    else:
        # Oversample + unique is far cheaper than choice(replace=False)
        # for sparse lists; top up in the rare shortfall case.
        cand = np.unique(rng.integers(0, num_docs, size=int(doc_freq * 1.3) + 8))
        while cand.size < doc_freq:
            extra = rng.integers(0, num_docs, size=doc_freq)
            cand = np.unique(np.concatenate([cand, extra]))
        doc_ids = rng.permutation(cand)[:doc_freq].astype(np.int64)
    tfs = (1 + rng.geometric(p=0.45, size=doc_freq)).astype(np.int32)
    order = np.lexsort((doc_ids, -tfs))
    return doc_ids[order], tfs[order]
