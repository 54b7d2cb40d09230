"""Index construction from documents.

The inverse of the statistical shortcut: consume a
:class:`~repro.engine.documents.DocumentStore` token by token and emit a
:class:`MaterializedIndex` with *exact* posting lists in the
frequency-sorted layout.  The result quacks like
:class:`~repro.engine.index.InvertedIndex` (``lexicon``, ``layout``,
``postings``, ``idf``), so the processor, cache manager and trace tools
work on built indexes unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.engine.corpus import CorpusConfig, CorpusStats
from repro.engine.documents import DocumentStore
from repro.engine.index import InvertedIndex
from repro.engine.layout import IndexLayout
from repro.engine.lexicon import Lexicon
from repro.engine.postings import DOC_ID_DTYPE, TF_DTYPE, PostingList

__all__ = ["MaterializedIndex", "build_index"]

#: Seed of the synthesised per-term utilization rates.
UTILIZATION_SEED = 0
#: Built indexes lay out raw postings; True sizes them varbyte-compressed.
COMPRESSED = False


class MaterializedIndex:
    """An inverted index whose posting lists are held fully in memory.

    Interface-compatible with :class:`~repro.engine.index.InvertedIndex`
    for everything the rest of the system touches.
    """

    def __init__(
        self,
        stats: CorpusStats,
        postings: dict[int, PostingList],
    ) -> None:
        self.stats = stats
        self.compressed = COMPRESSED
        sizes = None
        if COMPRESSED:
            from repro.engine.codec import encoded_size

            sizes = np.maximum(1, np.array(
                [encoded_size(postings[t]) if t in postings else 1
                 for t in range(stats.num_terms)],
                dtype=np.int64,
            ))
        self.lexicon = Lexicon(stats, list_sizes=sizes)
        self.layout = IndexLayout(stats, sizes_bytes=sizes)
        self._postings = postings

    @property
    def num_docs(self) -> int:
        return self.stats.config.num_docs

    @property
    def num_terms(self) -> int:
        return self.stats.num_terms

    @property
    def index_bytes(self) -> int:
        return self.layout.total_bytes

    def postings(self, term_id: int) -> PostingList:
        if not 0 <= term_id < self.num_terms:
            raise KeyError(f"term id {term_id} out of range")
        plist = self._postings.get(term_id)
        if plist is None:
            return PostingList(
                term_id, np.empty(0, DOC_ID_DTYPE), np.empty(0, TF_DTYPE)
            )
        return plist

    #: the same idf and range check (``KeyError``) as the synthetic index
    idf = InvertedIndex.idf

    def describe(self) -> str:
        cfg = self.stats.config
        return (
            f"MaterializedIndex(docs={cfg.num_docs:,}, terms={cfg.vocab_size:,}, "
            f"index={self.index_bytes / 1e6:.1f} MB)"
        )


def build_index(
    store: DocumentStore,
    vocab_size: int | None = None,
) -> MaterializedIndex:
    """Build an exact inverted index from a document store.

    Posting lists come out frequency-sorted (descending tf, ascending doc
    id) — the filtered-vector-model layout the paper's selection policy
    assumes.  ``doc_freqs``/``coll_freqs`` are exact counts; the
    utilization model (a query-behaviour property, not a collection
    property) is synthesised the same way the statistical path does.

    Terms of the vocabulary absent from the collection keep df = 1
    placeholders (downstream size arithmetic assumes non-empty lists)
    while their posting lists are empty.  A tf must fit the 2-byte tf
    field (``TF_DTYPE``): a term occurring more than 65 535 times in one
    document raises ``ValueError``.
    """
    if len(store) == 0:
        raise ValueError("cannot build an index from an empty store")
    if vocab_size is None:
        vocab_size = max(store.vocabulary()) + 1

    # Accumulate (term -> [(tf, doc_id)]) exactly.
    accum: dict[int, list[tuple[int, int]]] = {}
    num_docs = 0
    total_tokens = 0
    for doc in store:
        num_docs += 1
        total_tokens += len(doc)
        for term, tf in doc.term_frequencies().items():
            accum.setdefault(term, []).append((tf, doc.doc_id))

    doc_freqs = np.ones(vocab_size, dtype=np.int64)
    coll_freqs = np.ones(vocab_size, dtype=np.int64)
    postings: dict[int, PostingList] = {}
    max_tf = np.iinfo(TF_DTYPE).max
    for term, pairs in accum.items():
        if term >= vocab_size:
            raise ValueError(f"document term {term} exceeds vocab_size {vocab_size}")
        pairs.sort(key=lambda p: (-p[0], p[1]))
        if pairs[0][0] > max_tf:
            raise ValueError(f"term {term} has tf {pairs[0][0]} in document "
                             f"{pairs[0][1]}, beyond the 2-byte tf field")
        tfs = np.array([tf for tf, _ in pairs], dtype=TF_DTYPE)
        doc_ids = np.array([d for _, d in pairs], dtype=DOC_ID_DTYPE)
        postings[term] = PostingList(term, doc_ids, tfs)
        doc_freqs[term] = len(pairs)
        coll_freqs[term] = int(tfs.sum())

    # Term probabilities from exact collection frequencies.
    probs = coll_freqs / coll_freqs.sum()

    # Utilization: same behavioural model as build_corpus_stats.
    rng = np.random.default_rng(UTILIZATION_SEED)
    length_rank = np.argsort(np.argsort(-doc_freqs))
    frac = length_rank / max(1, vocab_size - 1)
    mean_u = 0.22 + 0.68 * frac
    a = np.maximum(1e-3, mean_u * 3.0)
    b = np.maximum(1e-3, (1.0 - mean_u) * 3.0)
    utilization = np.clip(rng.beta(a, b), 0.02, 1.0)
    utilization[doc_freqs <= 16] = 1.0

    max_doc_id = max(d.doc_id for d in store)
    config = CorpusConfig(
        num_docs=max_doc_id + 1,
        vocab_size=vocab_size,
        avg_doc_len=max(1, total_tokens // num_docs),
        seed=UTILIZATION_SEED,
    )
    stats = CorpusStats(
        config=config,
        term_probs=probs,
        doc_freqs=doc_freqs,
        coll_freqs=coll_freqs,
        utilization=utilization,
    )
    return MaterializedIndex(stats, postings)
