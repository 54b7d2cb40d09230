"""The inverted index: lexicon + layout + lazily materialised postings.

The index is the substrate under everything: the cache manager asks it for
list sizes and locations, the processor asks it for posting data, and the
trace generator asks it for extents.  Posting lists are synthesised on
demand from (seed, term_id) and memoised in a bounded cache, so a
5 M-document-scale index never has to exist in memory at once.
"""

from __future__ import annotations

from collections import OrderedDict

import math

from repro.engine.corpus import CorpusConfig, CorpusStats, build_corpus_stats
from repro.engine.layout import IndexLayout
from repro.engine.lexicon import Lexicon
from repro.engine.postings import PostingList, generate_posting_list

__all__ = ["InvertedIndex"]

#: Posting lists kept materialised, least recently used evicted first.
POSTINGS_CACHE_SIZE = 512


class InvertedIndex:
    """A queryable synthetic inverted index."""

    def __init__(
        self,
        corpus: CorpusConfig | CorpusStats | None = None,
        compressed: bool = False,
    ) -> None:
        if corpus is None:
            corpus = build_corpus_stats()
        elif isinstance(corpus, CorpusConfig):
            corpus = build_corpus_stats(corpus)
        self.stats = corpus
        self.compressed = compressed
        sizes = None
        if compressed:
            from repro.engine.codec import estimate_compressed_list_bytes

            sizes = estimate_compressed_list_bytes(
                corpus.doc_freqs, corpus.config.num_docs
            )
        self.lexicon = Lexicon(corpus, list_sizes=sizes)
        self.layout = IndexLayout(corpus, sizes_bytes=sizes)
        self._postings_cache: OrderedDict[int, PostingList] = OrderedDict()

    @property
    def num_docs(self) -> int:
        return self.stats.config.num_docs

    @property
    def num_terms(self) -> int:
        return self.stats.num_terms

    @property
    def index_bytes(self) -> int:
        """Total on-disk size of all posting lists."""
        return self.layout.total_bytes

    def postings(self, term_id: int) -> PostingList:
        """Materialise (or recall) the posting list of ``term_id``."""
        cached = self._postings_cache.get(term_id)
        if cached is not None:
            self._postings_cache.move_to_end(term_id)
            return cached
        if not 0 <= term_id < self.num_terms:
            raise KeyError(f"term id {term_id} out of range")
        df = int(self.stats.doc_freqs[term_id])
        plist = generate_posting_list(
            term_id, df, self.num_docs, seed=self.stats.config.seed
        )
        self._postings_cache[term_id] = plist
        if len(self._postings_cache) > POSTINGS_CACHE_SIZE:
            self._postings_cache.popitem(last=False)
        return plist

    def idf(self, term_id: int) -> float:
        """Lucene-style idf: 1 + ln(N / (df + 1))."""
        if not 0 <= term_id < self.num_terms:
            raise KeyError(f"term id {term_id} out of range")
        df = int(self.stats.doc_freqs[term_id])
        return 1.0 + math.log(self.num_docs / (df + 1))

    def describe(self) -> str:
        cfg = self.stats.config
        return (
            f"InvertedIndex(docs={cfg.num_docs:,}, terms={cfg.vocab_size:,}, "
            f"index={self.index_bytes / 1e6:.1f} MB)"
        )
