"""Posting lists and their frequency-sorted layout."""

import numpy as np
import pytest

from repro.engine.postings import (
    POSTING_BYTES,
    PostingList,
    generate_posting_list,
)


def test_generated_list_shape():
    plist = generate_posting_list(3, doc_freq=200, num_docs=5000, seed=1)
    assert len(plist) == 200
    assert plist.nbytes == 200 * POSTING_BYTES


def test_doc_ids_unique_and_in_range():
    plist = generate_posting_list(0, 500, 1000, seed=2)
    assert len(np.unique(plist.doc_ids)) == 500
    assert plist.doc_ids.min() >= 0
    assert plist.doc_ids.max() < 1000


def test_frequency_sorted_invariant():
    plist = generate_posting_list(1, 300, 5000, seed=3)
    assert (np.diff(plist.tfs) <= 0).all()


def test_dense_list_path():
    """doc_freq > num_docs/2 takes the permutation branch."""
    plist = generate_posting_list(0, 900, 1000, seed=4)
    assert len(np.unique(plist.doc_ids)) == 900


def test_deterministic_per_term_and_seed():
    a = generate_posting_list(7, 100, 1000, seed=5)
    b = generate_posting_list(7, 100, 1000, seed=5)
    assert np.array_equal(a.doc_ids, b.doc_ids)
    c = generate_posting_list(8, 100, 1000, seed=5)
    assert not np.array_equal(a.doc_ids, c.doc_ids)


def test_empty_and_invalid():
    empty = generate_posting_list(0, 0, 100, seed=0)
    assert len(empty) == 0
    with pytest.raises(ValueError):
        generate_posting_list(0, -1, 100, seed=0)
    with pytest.raises(ValueError):
        generate_posting_list(0, 200, 100, seed=0)


def test_prefix_returns_head():
    plist = generate_posting_list(2, 100, 1000, seed=1)
    half = plist.prefix(0.5)
    assert len(half) == 50
    assert np.array_equal(half.doc_ids, plist.doc_ids[:50])
    assert len(plist.prefix(0.0)) == 1  # never less than one posting


def test_prefix_validation():
    plist = generate_posting_list(2, 10, 100, seed=1)
    with pytest.raises(ValueError):
        plist.prefix(1.5)


def test_prefix_contains_highest_tf():
    """The frequency-sorted layout puts the best documents first."""
    plist = generate_posting_list(2, 400, 5000, seed=6)
    head = plist.prefix(0.1)
    assert head.tfs.min() >= np.percentile(plist.tfs, 85)


def test_constructor_rejects_mismatched_arrays():
    with pytest.raises(ValueError):
        PostingList(0, np.array([1, 2]), np.array([1], dtype=np.int32))


def test_constructor_rejects_unsorted_tfs():
    with pytest.raises(ValueError):
        PostingList(
            0,
            np.array([1, 2], dtype=np.int64),
            np.array([1, 5], dtype=np.int32),
        )
    # A rise after a tie is caught too; ties alone are sorted.
    with pytest.raises(ValueError, match="sorted non-increasing"):
        PostingList(0, np.array([1, 2, 3], dtype=np.int64),
                    np.array([4, 4, 5], dtype=np.int32))
    PostingList(0, np.array([1, 2, 3], dtype=np.int64),
                np.array([5, 4, 4], dtype=np.int32))


def test_equality_is_content_equality_and_never_raises():
    a = generate_posting_list(7, 100, 1000, seed=5)
    b = generate_posting_list(7, 100, 1000, seed=5)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    # Same arrays under another term id, one posting changed, one posting
    # short, another dtype: unequal, and no ambiguous-truth ValueError.
    assert a != PostingList(8, a.doc_ids, a.tfs)
    changed = a.doc_ids.copy()
    changed[-1] = 999 if changed[-1] != 999 else 998
    assert a != PostingList(7, changed, a.tfs)
    assert a != a.prefix(0.5)
    assert a != PostingList(7, a.doc_ids.astype(np.int32), a.tfs)
    assert a != (7, a.doc_ids, a.tfs)
    one = PostingList(0, np.array([3], dtype=np.int64),
                      np.array([2], dtype=np.int32))
    assert one == PostingList(0, np.array([3], dtype=np.int64),
                              np.array([2], dtype=np.int32))
    empty = generate_posting_list(0, 0, 100, seed=0)
    assert empty == generate_posting_list(0, 0, 100, seed=0) != one
    assert hash(empty) == hash(generate_posting_list(0, 0, 100, seed=0))

def test_skip_offsets():
    plist = generate_posting_list(0, 100, 1000, seed=1)
    offsets = plist.skip_offsets()
    assert len(offsets) == 100 // 16
    assert offsets[0] == 16 * POSTING_BYTES
