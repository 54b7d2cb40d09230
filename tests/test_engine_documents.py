"""Documents, the index builder and the query parser."""

import math

import numpy as np
import pytest

from repro.engine.builder import build_index
from repro.engine.documents import Document, DocumentStore, generate_documents
from repro.engine.parser import QueryParser
from repro.engine.postings import POSTING_BYTES
from repro.engine.processor import QueryProcessor
from repro.engine.query import Query


@pytest.fixture(scope="module")
def store():
    return generate_documents(num_docs=300, vocab_size=120, avg_doc_len=60, seed=8)


@pytest.fixture(scope="module")
def built(store):
    return build_index(store, vocab_size=120)


# -- documents -------------------------------------------------------------

def test_document_term_frequencies():
    doc = Document(doc_id=0, tokens=np.array([3, 1, 3, 3, 2], dtype=np.int64))
    assert doc.term_frequencies() == {1: 1, 2: 1, 3: 3}
    assert len(doc) == 5


def test_document_validation():
    with pytest.raises(ValueError):
        Document(doc_id=-1, tokens=np.array([1], dtype=np.int64))


def test_store_rejects_duplicate_ids():
    docs = [Document(0, np.array([1], dtype=np.int64)),
            Document(0, np.array([2], dtype=np.int64))]
    with pytest.raises(ValueError):
        DocumentStore(docs)


def test_store_iteration_sorted(store):
    ids = [d.doc_id for d in store]
    assert ids == sorted(ids)
    assert len(store) == 300


def test_store_get(store):
    assert store.get(5).doc_id == 5
    with pytest.raises(KeyError):
        store.get(10**6)


def test_generate_documents_deterministic():
    a = generate_documents(50, 40, seed=1)
    b = generate_documents(50, 40, seed=1)
    assert np.array_equal(a.get(3).tokens, b.get(3).tokens)


def test_generate_documents_zipf_head_dominates(store):
    """Low term ids (high Zipf probability) occur most often."""
    counts = np.zeros(120, dtype=np.int64)
    for doc in store:
        terms, c = np.unique(doc.tokens, return_counts=True)
        counts[terms] += c
    assert counts[:12].sum() > counts[60:].sum()


def test_generate_documents_validation():
    with pytest.raises(ValueError):
        generate_documents(0, 10)


# -- builder ------------------------------------------------------------------

def test_built_index_doc_freqs_exact(store, built):
    """df from the index must equal a direct count over documents."""
    direct = np.zeros(120, dtype=np.int64)
    for doc in store:
        for term in doc.term_frequencies():
            direct[term] += 1
    present = direct > 0
    assert np.array_equal(built.stats.doc_freqs[present], direct[present])
    # Absent terms carry the documented df=1 placeholder.
    assert (built.stats.doc_freqs[~present] == 1).all()


def test_built_postings_frequency_sorted(built):
    for term in range(0, 120, 7):
        plist = built.postings(term)
        if len(plist) > 1:
            assert (np.diff(plist.tfs) <= 0).all()


def test_built_postings_match_documents(store, built):
    """Every posting's (doc, tf) must be exactly the document's count."""
    term = 0  # most frequent term: present in many docs
    plist = built.postings(term)
    for doc_id, tf in zip(plist.doc_ids[:20], plist.tfs[:20]):
        assert store.get(int(doc_id)).term_frequencies()[term] == int(tf)


def test_built_index_layout_consistent(built):
    ext = built.layout.extent(0)
    assert ext.nbytes == int(built.stats.doc_freqs[0]) * POSTING_BYTES


def test_built_index_works_with_processor(built):
    processor = QueryProcessor(built, top_k=5, seed=3)
    plan = processor.plan(Query(0, (0, 1)))
    entry = processor.execute(plan, materialize=True)
    assert len(entry) > 0


def test_built_index_idf_bounds_match_postings(built):
    """idf(-1) used to answer with the last term's idf and idf(num_terms)
    to raise IndexError; postings() raises KeyError for both."""
    for term_id in (-1, built.num_terms):
        with pytest.raises(KeyError, match="out of range"):
            built.idf(term_id)
        with pytest.raises(KeyError, match="out of range"):
            built.postings(term_id)
    last = built.num_terms - 1
    df = int(built.stats.doc_freqs[last])
    assert built.idf(last) == 1.0 + math.log(built.num_docs / (df + 1))


def test_build_empty_store_rejected():
    with pytest.raises(ValueError):
        build_index(DocumentStore([]))


def test_build_vocab_too_small_rejected(store):
    with pytest.raises(ValueError):
        build_index(store, vocab_size=3)


# -- parser -------------------------------------------------------------------

def test_parser_roundtrip(built):
    parser = QueryParser(built.lexicon)
    q = parser.parse("term00003 term00007")
    assert q.terms == (3, 7)
    assert q.key == (3, 7)


def test_parser_case_punctuation_and_dedup(built):
    parser = QueryParser(built.lexicon)
    q = parser.parse("TERM00003, term00003! term00007?")
    assert q.terms == (3, 7)


def test_parser_drops_unknown_tokens(built):
    parser = QueryParser(built.lexicon)
    q = parser.parse("hello term00002 world")
    assert q.terms == (2,)


def test_parser_rejects_fully_unknown(built):
    parser = QueryParser(built.lexicon)
    with pytest.raises(ValueError):
        parser.parse("completely unknown words")


def test_parser_max_terms(built):
    parser = QueryParser(built.lexicon, max_terms=2)
    q = parser.parse("term00001 term00002 term00003")
    assert len(q.terms) == 2


def test_parser_assigns_sequential_ids(built):
    parser = QueryParser(built.lexicon)
    a = parser.parse("term00001")
    b = parser.parse("term00002")
    assert b.query_id == a.query_id + 1
    c = parser.parse("term00003", query_id=99)
    assert c.query_id == 99
