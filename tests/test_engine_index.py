"""Lexicon, layout and inverted index."""

import numpy as np
import pytest

from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.layout import SECTOR_BYTES, IndexLayout
from repro.engine.lexicon import Lexicon
from repro.engine.postings import POSTING_BYTES


# -- lexicon -----------------------------------------------------------------

def test_lexicon_term_info(small_corpus):
    lex = Lexicon(small_corpus)
    info = lex.term(0)
    assert info.term_id == 0
    assert info.doc_freq == small_corpus.doc_freqs[0]
    assert info.list_bytes == info.doc_freq * POSTING_BYTES
    assert 0 < info.utilization <= 1


def test_lexicon_spell_lookup_roundtrip(small_corpus):
    lex = Lexicon(small_corpus)
    assert lex.lookup(lex.spell(42)) == 42
    assert lex.spell(42) == "term00042"


def test_lexicon_lookup_rejects_unknown(small_corpus):
    lex = Lexicon(small_corpus)
    with pytest.raises(KeyError):
        lex.lookup("nonsense")
    with pytest.raises(KeyError):
        lex.lookup("termXYZ")
    with pytest.raises(KeyError):
        lex.lookup(lex.spell(len(lex) + 5))


def test_lexicon_bounds(small_corpus):
    lex = Lexicon(small_corpus)
    with pytest.raises(KeyError):
        lex.term(len(lex))
    with pytest.raises(KeyError):
        lex.list_bytes(-1)


# -- layout ----------------------------------------------------------------------

def test_layout_extents_are_disjoint_and_ordered(small_corpus):
    layout = IndexLayout(small_corpus)
    prev_end = 0
    for term_id in range(min(100, small_corpus.num_terms)):
        ext = layout.extent(term_id)
        assert ext.lba >= prev_end
        prev_end = ext.lba + ext.sectors
    assert layout.total_sectors >= prev_end


def test_layout_total_bytes(small_corpus):
    layout = IndexLayout(small_corpus)
    assert layout.total_bytes == int(small_corpus.doc_freqs.sum()) * POSTING_BYTES


def test_layout_base_lba_offset(small_corpus):
    base = 10_000
    layout = IndexLayout(small_corpus, base_lba=base)
    assert layout.extent(0).lba == base


def test_layout_chunk_reads_cover_needed(small_corpus):
    layout = IndexLayout(small_corpus, chunk_bytes=128 * 1024)
    term = int(np.argmax(small_corpus.doc_freqs))
    ext = layout.extent(term)
    needed = min(ext.nbytes, 300 * 1024)
    reads = layout.chunk_reads(term, needed)
    assert sum(nb for _, nb in reads) >= needed
    # Each read stays within the extent.
    for lba, nb in reads:
        assert lba >= ext.lba
        assert (lba - ext.lba) * SECTOR_BYTES + nb <= ext.nbytes + SECTOR_BYTES


def test_layout_chunk_reads_clamped_to_list(small_corpus):
    layout = IndexLayout(small_corpus)
    term = int(np.argmin(small_corpus.doc_freqs))
    ext = layout.extent(term)
    reads = layout.chunk_reads(term, 10**9)
    assert sum(nb for _, nb in reads) == ext.nbytes


def test_layout_no_skip_coalesces(small_corpus):
    layout = IndexLayout(small_corpus, chunk_bytes=64 * 1024)
    term = int(np.argmax(small_corpus.doc_freqs))
    needed = min(layout.extent(term).nbytes, 200 * 1024)
    skip = layout.chunk_reads(term, needed, skip=True)
    merged = layout.chunk_reads(term, needed, skip=False)
    if len(skip) > 1:
        assert len(merged) == 1
        assert merged[0][1] == sum(nb for _, nb in skip)


def test_layout_validation(small_corpus):
    with pytest.raises(ValueError):
        IndexLayout(small_corpus, chunk_bytes=1000)  # not sector multiple
    layout = IndexLayout(small_corpus)
    with pytest.raises(KeyError):
        layout.extent(small_corpus.num_terms)


# -- index ---------------------------------------------------------------------------

def test_index_from_config():
    index = InvertedIndex(CorpusConfig(num_docs=2000, vocab_size=100, seed=9))
    assert index.num_docs == 2000
    assert index.num_terms == 100
    assert index.index_bytes > 0


def test_index_postings_lazy_and_memoised(small_index):
    a = small_index.postings(5)
    b = small_index.postings(5)
    assert a is b  # cached
    assert len(a) == small_index.stats.doc_freqs[5]


def test_index_postings_cache_bounded():
    index = InvertedIndex(
        CorpusConfig(num_docs=1000, vocab_size=50, seed=1), postings_cache_size=4
    )
    for t in range(10):
        index.postings(t)
    assert len(index._postings_cache) <= 4
    # Regenerated lists are identical (deterministic).
    first = index.postings(0).doc_ids.copy()
    for t in range(1, 10):
        index.postings(t)
    assert np.array_equal(index.postings(0).doc_ids, first)


def test_index_postings_bounds(small_index):
    with pytest.raises(KeyError):
        small_index.postings(small_index.num_terms)


def test_index_idf_bounds_match_postings(small_index):
    """idf(-1) used to answer with the last term's idf, idf(num_terms) to
    raise IndexError; postings() raises KeyError for both."""
    for term_id in (-1, small_index.num_terms):
        with pytest.raises(KeyError, match="out of range"):
            small_index.idf(term_id)
        with pytest.raises(KeyError, match="out of range"):
            small_index.postings(term_id)
    assert small_index.idf(small_index.num_terms - 1) > 0


def test_index_idf_decreasing_in_df(small_index):
    df = small_index.stats.doc_freqs
    frequent = int(np.argmax(df))
    rare = int(np.argmin(df))
    assert small_index.idf(rare) > small_index.idf(frequent)


def test_index_describe(small_index):
    text = small_index.describe()
    assert "docs=" in text and "MB" in text
