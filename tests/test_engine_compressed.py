"""Compressed-index integration (d-gap + varbyte sizes end to end)."""

import numpy as np
import pytest

from repro.core.config import CacheConfig
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine import builder
from repro.engine.builder import build_index
from repro.engine.codec import encoded_size, estimate_compressed_list_bytes
from repro.engine.corpus import CorpusConfig, build_corpus_stats
from repro.engine.documents import generate_documents
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.engine.query import Query


@pytest.fixture(scope="module")
def raw_index():
    return InvertedIndex(CorpusConfig(num_docs=5000, vocab_size=300, seed=4))


@pytest.fixture(scope="module")
def compressed_index():
    return InvertedIndex(CorpusConfig(num_docs=5000, vocab_size=300, seed=4),
                         compressed=True)


def test_estimate_validation():
    with pytest.raises(ValueError):
        estimate_compressed_list_bytes(np.array([1]), 0)
    with pytest.raises(ValueError):
        estimate_compressed_list_bytes(np.array([0]), 100)


def test_estimate_tracks_exact_sizes():
    """The analytic estimate must be within ~25% of the true encoding."""
    from repro.engine.postings import generate_posting_list

    stats = build_corpus_stats(CorpusConfig(num_docs=5000, vocab_size=100, seed=1))
    est = estimate_compressed_list_bytes(stats.doc_freqs, 5000)
    for term in range(0, 100, 9):
        plist = generate_posting_list(term, int(stats.doc_freqs[term]), 5000,
                                      seed=stats.config.seed)
        if len(plist) < 8:
            continue
        exact = encoded_size(plist)
        assert est[term] == pytest.approx(exact, rel=0.25)


def test_compressed_index_is_smaller(raw_index, compressed_index):
    assert compressed_index.index_bytes < raw_index.index_bytes * 0.7


def test_compressed_lexicon_and_layout_agree(compressed_index):
    for term in range(0, 300, 13):
        assert (compressed_index.lexicon.list_bytes(term)
                == compressed_index.layout.extent(term).nbytes)


def test_compressed_plan_demands_scale(raw_index, compressed_index):
    """Same traversal depth costs fewer bytes on the compressed index."""
    q = Query(0, (0, 5))
    raw_plan = QueryProcessor(raw_index, seed=9).plan(q)
    comp_plan = QueryProcessor(compressed_index, seed=9).plan(q)
    for raw_d, comp_d in zip(raw_plan.demands, comp_plan.demands):
        assert raw_d.postings == comp_d.postings  # same work
        assert comp_d.needed_bytes < raw_d.needed_bytes  # less I/O
        assert 0 < comp_d.pu <= 1.0


def test_compressed_index_runs_through_cache(compressed_index):
    cfg = CacheConfig.paper_split(mem_bytes=1 << 20, ssd_bytes=8 << 20,
                                  policy="cblru")
    mgr = CacheManager(cfg, build_hierarchy_for(cfg, compressed_index),
                       compressed_index)
    for i in range(80):
        mgr.process_query(Query(i % 20, (1 + i % 40,)))
    mgr.check_invariants()
    assert mgr.stats.queries == 80


def test_compressed_reduces_uncached_io(raw_index, compressed_index):
    from repro.workloads.retrieval import run_uncached
    from repro.engine.querylog import QueryLogConfig, generate_query_log

    log = generate_query_log(QueryLogConfig(
        num_queries=150, distinct_queries=150, vocab_size=300, seed=5))
    raw = run_uncached(raw_index, log)
    comp = run_uncached(compressed_index, log)
    assert comp.mean_response_ms < raw.mean_response_ms


def test_built_index_compressed_exact_sizes(monkeypatch):
    monkeypatch.setattr(builder, "COMPRESSED", True)
    store = generate_documents(num_docs=400, vocab_size=150,
                               avg_doc_len=80, seed=12)
    built = build_index(store, vocab_size=150)

    for term in range(0, 150, 11):
        plist = built.postings(term)
        if len(plist):
            assert built.lexicon.list_bytes(term) == encoded_size(plist)


def test_layout_rejects_bad_sizes(raw_index):
    from repro.engine.layout import IndexLayout

    with pytest.raises(ValueError):
        IndexLayout(raw_index.stats, sizes_bytes=np.array([1, 2]))
    bad = np.zeros(raw_index.num_terms, dtype=np.int64)
    with pytest.raises(ValueError):
        IndexLayout(raw_index.stats, sizes_bytes=bad)
