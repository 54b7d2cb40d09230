"""Synthetic query log (substitute for the AOL user-ct collection).

Two levels of skew drive the paper's caching results:

* **query popularity** — repeated queries follow a Zipf law, which is what
  result caching exploits (Section II.D, [16][17]);
* **term popularity** — query terms are drawn with a skew correlated with,
  but not identical to, collection frequency (people search for popular
  words), which is what list caching exploits [18].

A log is a concrete sequence of :class:`~repro.engine.query.Query`
objects; distinct queries with the same key share a query id, so result
caches can key on either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.engine.corpus import zipf_mandelbrot_probs
from repro.engine.query import Query
from repro.sim.rng import make_rng

__all__ = ["QueryLogConfig", "QueryLog", "generate_query_log"]


@dataclass(frozen=True)
class QueryLogConfig:
    """Shape of the synthetic query stream."""

    num_queries: int = 50_000
    #: size of the distinct-query pool the stream samples from
    distinct_queries: int = 10_000
    vocab_size: int = 20_000
    #: Zipf exponent for query popularity (~0.8-1.0 measured on web logs)
    query_zipf_s: float = 0.9
    #: Zipf exponent for term selection within queries
    term_zipf_s: float = 1.0
    min_terms: int = 1
    max_terms: int = 4
    #: fraction of the stream that is brand-new, never-repeated queries.
    #: Web logs (AOL included) are roughly half singletons, which is what
    #: bounds result-cache hit ratios in practice [16][17].
    singleton_fraction: float = 0.3
    seed: int = 7

    def __post_init__(self) -> None:
        if self.num_queries <= 0 or self.distinct_queries <= 0:
            raise ValueError("num_queries and distinct_queries must be positive")
        if not 1 <= self.min_terms <= self.max_terms:
            raise ValueError("need 1 <= min_terms <= max_terms")
        if self.vocab_size < self.max_terms:
            raise ValueError("vocab_size too small for max_terms")
        if not 0.0 <= self.singleton_fraction <= 1.0:
            raise ValueError("singleton_fraction must be in [0, 1]")


class QueryLog:
    """A generated query stream plus the distinct-query pool behind it."""

    def __init__(self, config: QueryLogConfig, pool: list[Query], stream_ids: np.ndarray):
        self.config = config
        self.pool = pool
        self.stream_ids = stream_ids

    def __len__(self) -> int:
        return int(self.stream_ids.size)

    def __iter__(self) -> Iterator[Query]:
        for qid in self.stream_ids:
            yield self.pool[int(qid)]

    def __getitem__(self, i: int) -> Query:
        return self.pool[int(self.stream_ids[i])]

    def head(self, n: int) -> list[Query]:
        """First ``n`` queries of the stream."""
        return [self.pool[int(q)] for q in self.stream_ids[:n]]

    def term_frequencies(self) -> dict[int, int]:
        """How often each term appears in the stream (Fig. 3b's quantity)."""
        freqs: dict[int, int] = {}
        for qid in self.stream_ids:
            for t in self.pool[int(qid)].terms:
                freqs[t] = freqs.get(t, 0) + 1
        return freqs

    def distinct_fraction(self) -> float:
        """Fraction of stream entries that are first occurrences."""
        return len(np.unique(self.stream_ids)) / max(1, len(self))


def generate_query_log(config: QueryLogConfig | None = None) -> QueryLog:
    """Build a deterministic synthetic query log."""
    config = config or QueryLogConfig()
    rng = make_rng(config.seed)

    term_probs = zipf_mandelbrot_probs(config.vocab_size, config.term_zipf_s, 2.7)
    # Queries skew toward mid-popularity terms: ultra-frequent stopwords are
    # down-weighted (search engines drop them), so damp the head slightly.
    damp = np.minimum(1.0, np.arange(1, config.vocab_size + 1) / 25.0) ** 0.5
    term_pick = term_probs * damp
    term_pick /= term_pick.sum()
    term_cdf = np.cumsum(term_pick)
    term_cdf /= term_cdf[-1]

    def draw_terms(n: int) -> list[int]:
        """``rng.choice(vocab_size, size=n, replace=False, p=term_pick)``
        draw for draw (same terms, same generator state afterwards) without
        re-validating ``p`` and re-running its cumsum for every query."""
        new = term_cdf.searchsorted(rng.random(n), side="right")
        terms = new.tolist()
        if len(set(terms)) == n:
            return terms
        # A term came up twice.  Carry on as numpy's own loop does: keep
        # first occurrences in draw order, zero what was found, redraw the
        # shortfall from the renormalised distribution.
        found, p = new[:0], term_pick.copy()
        while True:
            first = np.unique(new, return_index=True)[1]
            first.sort()
            found = np.concatenate((found, new.take(first)))
            if found.size == n:
                return found.tolist()
            x = rng.random(n - found.size)
            p[found] = 0
            cdf = np.cumsum(p)
            cdf /= cdf[-1]
            new = cdf.searchsorted(x, side="right")

    def draw_query(qid: int, seen_keys: dict) -> Query:
        n = int(rng.integers(config.min_terms, config.max_terms + 1))
        terms = draw_terms(n)
        q = Query(query_id=qid, terms=tuple(terms),
                  text=" ".join(f"term{t:05d}" for t in terms))
        key = q.key
        if key in seen_keys:
            # Reuse the earlier id so identical queries share a cache key.
            return Query(query_id=seen_keys[key], terms=q.terms, text=q.text)
        seen_keys[key] = qid
        return q

    seen_keys: dict[tuple[int, ...], int] = {}
    pool: list[Query] = [
        draw_query(qid, seen_keys) for qid in range(config.distinct_queries)
    ]

    pop = zipf_mandelbrot_probs(config.distinct_queries, config.query_zipf_s, 1.0)
    # Shuffle popularity ranks so popular queries are not systematically the
    # short ones generated first.
    perm = rng.permutation(config.distinct_queries)
    repeated = perm[rng.choice(config.distinct_queries,
                               size=config.num_queries, p=pop)]
    is_singleton = rng.random(config.num_queries) < config.singleton_fraction

    stream_ids = np.empty(config.num_queries, dtype=np.int64)
    for i in range(config.num_queries):
        if is_singleton[i]:
            q = draw_query(len(pool), seen_keys)
            # Key collisions with earlier queries keep the earlier id (the
            # "singleton" turns out to be a genuine repeat — rare).
            pool.append(q)
            stream_ids[i] = len(pool) - 1
        else:
            stream_ids[i] = repeated[i]
    return QueryLog(config, pool, stream_ids)
