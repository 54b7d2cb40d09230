"""The query-log generator the cached-CDF term draw replaced.

``repro.engine.querylog.generate_query_log`` draws a query's terms from a
CDF computed once; this is the generator it replaced, kept verbatim — one
``rng.choice(vocab, size=n, replace=False, p=term_pick)`` per query, which
re-validates ``p`` and re-runs its cumsum every time — as the oracle
``test_engine_query.py`` compares against with ``==``: the same pool, the
same stream and the same generator state afterwards, not close ones.
"""

from __future__ import annotations

import numpy as np

from repro.engine.corpus import zipf_mandelbrot_probs
from repro.engine.query import Query
from repro.engine.querylog import QueryLog, QueryLogConfig
from repro.sim.rng import make_rng


def reference_generate_query_log(config: QueryLogConfig | None = None) -> QueryLog:
    """``generate_query_log`` as it stood before the cached-CDF draw."""
    config = config or QueryLogConfig()
    rng = make_rng(config.seed)

    term_probs = zipf_mandelbrot_probs(config.vocab_size, config.term_zipf_s, 2.7)
    # Queries skew toward mid-popularity terms: ultra-frequent stopwords are
    # down-weighted (search engines drop them), so damp the head slightly.
    damp = np.minimum(1.0, np.arange(1, config.vocab_size + 1) / 25.0) ** 0.5
    term_pick = term_probs * damp
    term_pick /= term_pick.sum()

    def draw_query(qid: int, seen_keys: dict) -> Query:
        n = int(rng.integers(config.min_terms, config.max_terms + 1))
        terms = rng.choice(config.vocab_size, size=n, replace=False, p=term_pick)
        q = Query(query_id=qid, terms=tuple(int(t) for t in terms),
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
