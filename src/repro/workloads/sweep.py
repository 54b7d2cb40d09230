"""Parameter-sweep helpers shared by the benchmarks.

The paper's x-axes are (a) total document count 1-5 M (Figs. 15-18) and
(b) query count 10-100 k (Fig. 19).  ``make_scaled_index`` builds one
scaled index per document count — memoised, because index construction
is the expensive step — and ``make_log_for`` the matching query log.
"""

from __future__ import annotations

from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.querylog import QueryLog, QueryLogConfig, generate_query_log

__all__ = ["make_scaled_index", "make_log_for"]

_INDEX_CACHE: dict[tuple, InvertedIndex] = {}

#: Query terms are drawn from this many head terms of the vocabulary —
#: real query words are common words, whose lists are the large ones.
QUERY_VOCAB = 10_000


def make_scaled_index(num_docs: int, seed: int = 42) -> InvertedIndex:
    """A paper-scale index for ``num_docs`` documents (memoised)."""
    key = (num_docs, seed)
    index = _INDEX_CACHE.get(key)
    if index is None:
        index = InvertedIndex(CorpusConfig.paper_scale(num_docs, seed=seed))
        _INDEX_CACHE[key] = index
    return index


def make_log_for(
    num_queries: int,
    distinct_queries: int | None = None,
    seed: int = 7,
) -> QueryLog:
    """A standard query log for the sweeps.

    The distinct pool defaults to ~1/4 of the stream so both result-cache
    repetition and a long tail of fresh queries exist, as in web logs.
    """
    if distinct_queries is None:
        distinct_queries = max(100, num_queries // 4)
    return generate_query_log(
        QueryLogConfig(
            num_queries=num_queries,
            distinct_queries=distinct_queries,
            vocab_size=QUERY_VOCAB,
            seed=seed,
        )
    )
