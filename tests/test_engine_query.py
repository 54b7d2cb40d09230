"""Query objects and the query-log generator."""

import numpy as np
import pytest

from repro.analysis.zipf import fit_zipf_exponent
from repro.engine.query import Query
from repro.engine.querylog import QueryLogConfig, generate_query_log


def test_query_key_is_sorted_unique():
    q = Query(query_id=0, terms=(5, 3, 5, 1))
    assert q.key == (1, 3, 5)
    assert len(q) == 4


def test_query_key_is_computed_once_at_construction(monkeypatch):
    """``key`` is a stored attribute, not a property that sorts per read:
    no ``sorted`` call happens after the object exists."""
    import builtins

    q = Query(query_id=0, terms=(9, 2, 9, 4))
    calls = []
    real_sorted = builtins.sorted

    def counting_sorted(*args, **kwargs):
        calls.append(args)
        return real_sorted(*args, **kwargs)

    monkeypatch.setattr(builtins, "sorted", counting_sorted)
    assert q.key == (2, 4, 9)
    assert q.key is q.key  # the same tuple object every time
    assert calls == []


def test_query_key_stays_out_of_identity():
    """Two queries compare, hash and print exactly as they did when
    ``key`` was a property: by ``query_id`` and ``terms`` only."""
    a = Query(3, (7, 1, 7), text="x")
    b = Query(3, (7, 1, 7), text="y")
    c = Query(3, (1, 7))  # same key, different terms: a different query
    assert a == b and hash(a) == hash(b)
    assert a.key == c.key and a != c
    assert repr(a) == "Query(query_id=3, terms=(7, 1, 7), text='x')"
    assert len({a, b, c}) == 2


def test_query_requires_terms():
    with pytest.raises(ValueError):
        Query(query_id=0, terms=())


def test_query_equality_by_terms():
    a = Query(0, (1, 2), text="one two")
    b = Query(0, (1, 2), text="different text")
    assert a == b  # text excluded from comparison


def test_log_config_validation():
    with pytest.raises(ValueError):
        QueryLogConfig(num_queries=0)
    with pytest.raises(ValueError):
        QueryLogConfig(min_terms=3, max_terms=2)
    with pytest.raises(ValueError):
        QueryLogConfig(vocab_size=2, max_terms=5)


def test_log_length_and_iteration(small_log):
    assert len(small_log) == 600
    queries = list(small_log)
    assert len(queries) == 600
    assert all(isinstance(q, Query) for q in queries)


def test_log_head(small_log):
    head = small_log.head(10)
    assert len(head) == 10
    assert head[0] == small_log[0]


def test_log_term_lengths_within_bounds(small_log):
    cfg = small_log.config
    for q in small_log.pool:
        assert cfg.min_terms <= len(q.terms) <= cfg.max_terms
        assert len(set(q.terms)) == len(q.terms)  # no duplicate terms


def test_log_terms_within_vocab(small_log):
    vocab = small_log.config.vocab_size
    for q in small_log.pool:
        assert all(0 <= t < vocab for t in q.terms)


def test_log_determinism():
    cfg = QueryLogConfig(num_queries=200, distinct_queries=50, vocab_size=100, seed=4)
    a = generate_query_log(cfg)
    b = generate_query_log(cfg)
    assert np.array_equal(a.stream_ids, b.stream_ids)
    assert a.pool[0].terms == b.pool[0].terms


def test_log_repetition_exists(small_log):
    """Result caching only works if queries repeat."""
    assert small_log.distinct_fraction() < 0.5


def test_log_query_popularity_is_zipf_like():
    log = generate_query_log(
        QueryLogConfig(num_queries=20_000, distinct_queries=2_000,
                       vocab_size=1_000, seed=1)
    )
    _, counts = np.unique(log.stream_ids, return_counts=True)
    s = fit_zipf_exponent(counts, head_fraction=0.3)
    assert 0.5 < s < 1.5  # the paper cites a Zipf-like law


def test_log_term_frequencies_consistent(small_log):
    freqs = small_log.term_frequencies()
    total_terms = sum(len(q.terms) for q in small_log)
    assert sum(freqs.values()) == total_terms


def test_same_key_queries_share_id():
    log = generate_query_log(
        QueryLogConfig(num_queries=100, distinct_queries=2000,
                       vocab_size=30, seed=2, min_terms=1, max_terms=2)
    )
    by_key: dict = {}
    for q in log.pool:
        if q.key in by_key:
            assert q.query_id == by_key[q.key]
        else:
            by_key[q.key] = q.query_id
