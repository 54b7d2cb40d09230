"""Property-based tests over the engine substrate."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.corpus import CorpusConfig, build_corpus_stats, zipf_mandelbrot_probs
from repro.engine.layout import SECTOR_BYTES, IndexLayout
from repro.engine.postings import generate_posting_list
from repro.engine.querylog import QueryLogConfig, generate_query_log


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 3000),
    s=st.floats(0.3, 2.0),
    q=st.floats(0.0, 10.0),
)
def test_zipf_probs_always_valid(n, s, q):
    p = zipf_mandelbrot_probs(n, s, q)
    assert p.shape == (n,)
    assert abs(p.sum() - 1.0) < 1e-9
    assert (p > 0).all()
    assert (np.diff(p) <= 1e-15).all()


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    num_docs=st.integers(100, 20_000),
    vocab=st.integers(10, 400),
    seed=st.integers(0, 10**6),
)
def test_corpus_stats_always_consistent(num_docs, vocab, seed):
    stats = build_corpus_stats(
        CorpusConfig(num_docs=num_docs, vocab_size=vocab, avg_doc_len=50,
                     seed=seed)
    )
    stats.validate()
    layout = IndexLayout(stats)
    # Extents tile the index without overlap.
    prev_end = 0
    for term in range(vocab):
        ext = layout.extent(term)
        assert ext.lba == prev_end
        assert ext.nbytes <= ext.sectors * SECTOR_BYTES
        prev_end = ext.lba + ext.sectors
    assert layout.total_sectors == prev_end


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    df=st.integers(1, 2000),
    num_docs=st.integers(2000, 50_000),
    seed=st.integers(0, 10**6),
)
def test_posting_lists_always_wellformed(df, num_docs, seed):
    plist = generate_posting_list(1, df, num_docs, seed=seed)
    assert len(plist) == df
    assert len(np.unique(plist.doc_ids)) == df
    assert (plist.tfs[1:] <= plist.tfs[:-1]).all()
    assert (plist.tfs >= 1).all()
    assert plist.doc_ids.max() < num_docs


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    nq=st.integers(20, 400),
    dq=st.integers(5, 100),
    singleton=st.floats(0.0, 0.9),
    seed=st.integers(0, 10**5),
)
def test_query_log_properties(nq, dq, singleton, seed):
    log = generate_query_log(QueryLogConfig(
        num_queries=nq, distinct_queries=dq, vocab_size=200,
        singleton_fraction=singleton, seed=seed,
    ))
    assert len(log) == nq
    # Stream ids always index into the pool.
    assert log.stream_ids.max() < len(log.pool)
    # Term constraints hold for every pooled query.
    for q in log.pool:
        assert 1 <= len(q.terms) <= log.config.max_terms
        assert all(0 <= t < 200 for t in q.terms)
    # The realized singleton share is in the right neighbourhood: the
    # distinct fraction grows with the singleton parameter.
    if singleton >= 0.5 and nq >= 100:
        assert log.distinct_fraction() >= 0.3
