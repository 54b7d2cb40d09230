"""Synthetic documents and the document store.

Most experiments need only corpus *statistics* (:mod:`repro.engine.corpus`),
but a downstream adopter indexing real data needs the full pipeline:
documents in, inverted index out.  This module generates token-level
documents with the same Zipf statistics the statistical path assumes, and
stores them behind a small interface an :class:`~repro.engine.builder.
IndexBuilder` can consume — so the two paths are cross-checkable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.engine.corpus import zipf_mandelbrot_probs
from repro.sim.rng import make_rng

__all__ = ["Document", "DocumentStore", "generate_documents"]

#: Zipf-Mandelbrot token distribution of generated documents (the
#: statistical path's ``CorpusConfig`` defaults).
ZIPF_S = 1.0
ZIPF_Q = 2.7


@dataclass(frozen=True)
class Document:
    """One document: an id and its token stream (term ids)."""

    doc_id: int
    tokens: np.ndarray  # int64 term ids, in occurrence order

    def __post_init__(self) -> None:
        if self.doc_id < 0:
            raise ValueError("doc_id cannot be negative")

    def __len__(self) -> int:
        return int(self.tokens.size)

    def term_frequencies(self) -> dict[int, int]:
        """term id -> tf within this document."""
        terms, counts = np.unique(self.tokens, return_counts=True)
        return {int(t): int(c) for t, c in zip(terms, counts)}


class DocumentStore:
    """An in-memory collection of documents with summary statistics."""

    def __init__(self, documents: list[Document]) -> None:
        ids = [d.doc_id for d in documents]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate doc_ids in store")
        self._docs = {d.doc_id: d for d in documents}
        self._order = sorted(self._docs)

    def __len__(self) -> int:
        return len(self._docs)

    def __iter__(self) -> Iterator[Document]:
        for doc_id in self._order:
            yield self._docs[doc_id]

    def get(self, doc_id: int) -> Document:
        try:
            return self._docs[doc_id]
        except KeyError:
            raise KeyError(f"no document {doc_id}") from None

    @property
    def total_tokens(self) -> int:
        return sum(len(d) for d in self._docs.values())

    def vocabulary(self) -> set[int]:
        vocab: set[int] = set()
        for doc in self._docs.values():
            vocab.update(int(t) for t in np.unique(doc.tokens))
        return vocab


def generate_documents(
    num_docs: int,
    vocab_size: int,
    avg_doc_len: int = 200,
    seed: int = 0,
) -> DocumentStore:
    """Generate Zipf-token documents with log-normal length variation."""
    if num_docs <= 0 or vocab_size <= 0 or avg_doc_len <= 0:
        raise ValueError("num_docs, vocab_size and avg_doc_len must be positive")
    rng = make_rng(seed)
    probs = zipf_mandelbrot_probs(vocab_size, ZIPF_S, ZIPF_Q)
    lengths = np.maximum(
        1, rng.lognormal(mean=np.log(avg_doc_len), sigma=0.4, size=num_docs)
    ).astype(np.int64)
    docs = [
        Document(doc_id=i, tokens=rng.choice(vocab_size, size=int(lengths[i]),
                                              p=probs).astype(np.int64))
        for i in range(num_docs)
    ]
    return DocumentStore(docs)
