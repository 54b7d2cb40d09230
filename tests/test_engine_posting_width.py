"""Every path that makes a ``PostingList`` holds the paper's field widths.

The generator's three doc-id branches (permutation, bitmap, top-up), the
builder, the codec's decoder and ``prefix`` all yield ``uint32`` doc ids
and ``uint16`` tfs; encoding round-trips them and ``encoded_size`` still
prices the encoding exactly.  A value that does not fit its field raises
instead of wrapping.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import postings as postings_module
from repro.engine.builder import build_index
from repro.engine.codec import (decode_posting_list, encode_posting_list,
                                encoded_size, varbyte_encode)
from repro.engine.documents import Document, DocumentStore
from repro.engine.postings import (DOC_ID_DTYPE, TF_DTYPE, PostingList,
                                   generate_posting_list)


def assert_canonical(plist: PostingList) -> None:
    assert plist.doc_ids.dtype == DOC_ID_DTYPE == np.uint32
    assert plist.tfs.dtype == TF_DTYPE == np.uint16


def assert_width_contract(plist: PostingList) -> None:
    """Canonical dtypes on the list, its prefixes and its decoding."""
    assert_canonical(plist)
    for fraction in (0.0, 0.3, 1.0):
        assert_canonical(plist.prefix(fraction))
    data = encode_posting_list(plist)
    back = decode_posting_list(data)
    assert_canonical(back)
    assert back == plist
    assert encoded_size(plist) == len(data)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), num_docs=st.integers(1, 50_000),
       term_id=st.integers(0, 10**6), seed=st.integers(0, 2**32 - 1))
def test_generated_lists_hold_the_field_widths(data, num_docs, term_id,
                                               seed):
    # Up to num_docs // 2 the bitmap branch runs, past it the permutation.
    doc_freq = data.draw(st.one_of(
        st.integers(0, num_docs // 2), st.integers(num_docs // 2, num_docs)))
    assert_width_contract(
        generate_posting_list(term_id, doc_freq, num_docs, seed))


def test_top_up_loop_holds_the_field_widths():
    """df = N // 2 falls short of df distinct ids on the first draw (see
    ``test_top_up_loop_equals_reference``), so the top-up loop runs."""
    assert_width_contract(generate_posting_list(9, 2_500, 5_000, seed=4))


def test_generated_tf_fits_its_field_by_construction():
    """The tf draw is 1 + a table search over the geometric's cumulative
    sums, so no tf exceeds their count + 1 (61), far below 65 535."""
    bound = postings_module._TF_SUMS.size + 1
    assert bound == 61 <= np.iinfo(TF_DTYPE).max
    plist = generate_posting_list(0, 200_000, 400_000, seed=1)
    assert 1 <= int(plist.tfs.min()) and int(plist.tfs.max()) <= bound


@st.composite
def document_stores(draw):
    docs = draw(st.lists(
        st.lists(st.integers(0, 9), min_size=1, max_size=30),
        min_size=1, max_size=20))
    doc_ids = draw(st.lists(st.integers(0, 2**32 - 1), unique=True,
                            min_size=len(docs), max_size=len(docs)))
    return DocumentStore([Document(d, np.array(tokens, dtype=np.int64))
                          for d, tokens in zip(doc_ids, docs)])


@settings(max_examples=40, deadline=None)
@given(store=document_stores())
def test_built_lists_hold_the_field_widths(store):
    built = build_index(store, vocab_size=10)
    for term in range(built.num_terms):
        assert_width_contract(built.postings(term))


def test_builder_rejects_a_tf_beyond_the_field():
    widest = DocumentStore([Document(0, np.zeros(65_535, dtype=np.int64))])
    assert int(build_index(widest, vocab_size=1).postings(0).tfs[0]) == 65_535
    store = DocumentStore([Document(0, np.array([1], dtype=np.int64)),
                           Document(7, np.zeros(65_536, dtype=np.int64))])
    with pytest.raises(ValueError, match="term 0 has tf 65536 in document 7"):
        build_index(store, vocab_size=2)


@pytest.mark.parametrize("gap, tf", [(2**32, 1), (0, 2**16)])
def test_decoder_rejects_a_value_beyond_its_field(gap, tf):
    data = varbyte_encode(np.array([3, 1, gap, tf]))
    with pytest.raises(ValueError, match="field width"):
        decode_posting_list(data)
    widest = varbyte_encode(np.array([3, 1, min(gap, 2**32 - 1),
                                      min(tf, 2**16 - 1)]))
    assert_canonical(decode_posting_list(widest))
