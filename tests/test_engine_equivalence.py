"""The engine's array passes return what the scalar code they replaced did.

``QueryProcessor._score`` and ``generate_posting_list`` are compared with
the references in ``_engine_reference.py`` under ``==`` and exact array
equality: the promise is identical results, not close ones.  So is
``generate_query_log`` with ``_querylog_reference.py``, down to the state
its random generator is left in.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._hot import HOT
from repro.engine import postings as postings_module
from repro.engine.postings import (DOC_ID_DTYPE, TF_DTYPE, PostingList,
                                   _draw_geometric, generate_posting_list)
from repro.engine.processor import ListDemand, QueryPlan, QueryProcessor
from repro.engine import querylog
from repro.engine.query import Query
from repro.engine.querylog import QueryLogConfig, generate_query_log
from repro.sim.rng import make_rng

from . import _querylog_reference
from ._engine_reference import reference_generate_posting_list, reference_score


class FixedIndex:
    """The two calls ``_score`` makes, over hand-built lists."""

    def __init__(self, lists, idfs):
        self._lists, self._idfs = lists, idfs

    def postings(self, term_id):
        return self._lists[term_id]

    def idf(self, term_id):
        return self._idfs[term_id]


def plan_of(prefixes) -> QueryPlan:
    """A plan demanding ``postings`` of each ``(term_id, postings)``.

    Scoring reads only the demands, so the query is a fixed one (a
    ``Query`` cannot be empty, a demand tuple can).
    """
    demands = tuple(
        ListDemand(term_id=t, list_bytes=8, needed_bytes=8, pu=1.0, postings=n)
        for t, n in prefixes
    )
    return QueryPlan(Query(0, (0,)), demands)


# Few documents, few distinct tf and idf values: documents recur across
# lists, whole scores tie across documents, and idf 0.0 makes postings
# that score nothing.  sqrt(2), sqrt(3) and the last idf are inexact, so
# a sum taken in another order differs in its last bit.
NUM_DOCS = 12
TFS = (1, 2, 3, 4)
IDFS = (0.0, 0.5, 1.0, 1.7320508075688772)


@st.composite
def scoring_cases(draw):
    num_terms = draw(st.integers(1, 5))
    lists = []
    for term in range(num_terms):
        docs = draw(st.lists(st.integers(0, NUM_DOCS - 1), unique=True,
                             max_size=NUM_DOCS))
        tfs = sorted(draw(st.lists(st.sampled_from(TFS), min_size=len(docs),
                                   max_size=len(docs))), reverse=True)
        lists.append(PostingList(term, np.array(docs, dtype=DOC_ID_DTYPE),
                                 np.array(tfs, dtype=TF_DTYPE)))
    idfs = draw(st.lists(st.sampled_from(IDFS), min_size=num_terms,
                         max_size=num_terms))
    # Demand order is free, a term may be demanded twice, a prefix may be
    # empty or ask for more than the list holds, and there may be no
    # demand at all.
    prefixes = draw(st.lists(
        st.tuples(st.integers(0, num_terms - 1), st.integers(0, NUM_DOCS + 2)),
        max_size=6))
    top_k = draw(st.sampled_from((1, 2, 3, NUM_DOCS, 50)))
    return FixedIndex(lists, idfs), plan_of(prefixes), top_k


@settings(max_examples=300, deadline=None)
@given(case=scoring_cases())
def test_score_equals_scalar_reference(case):
    index, plan, top_k = case
    before = HOT.postings_decoded
    got = QueryProcessor(index, top_k=top_k)._score(plan)
    decoded = HOT.postings_decoded - before
    assert got == reference_score(index, top_k, plan)
    assert all(type(r.doc_id) is int and type(r.score) is float for r in got)
    assert decoded == sum(min(d.postings, len(index.postings(d.term_id)))
                          for d in plan.demands)


@settings(max_examples=40, deadline=None)
@given(terms=st.lists(st.integers(0, 499), min_size=1, max_size=4, unique=True),
       seed=st.integers(0, 10**6), top_k=st.sampled_from((1, 10, 50)))
def test_score_equals_scalar_reference_on_generated_index(small_index, terms,
                                                          seed, top_k):
    processor = QueryProcessor(small_index, top_k=top_k, seed=seed)
    plan = processor.plan(Query(0, tuple(terms)))
    assert processor._score(plan) == reference_score(small_index, top_k, plan)


def test_score_of_all_empty_prefixes_is_empty():
    index = FixedIndex(
        [PostingList(0, np.array([3], dtype=DOC_ID_DTYPE),
                     np.array([2], dtype=TF_DTYPE)),
         PostingList(1, np.empty(0, dtype=DOC_ID_DTYPE),
                     np.empty(0, dtype=TF_DTYPE))],
        [1.0, 1.0])
    processor = QueryProcessor(index)
    plan = plan_of([(0, 0), (1, 5)])
    assert processor._score(plan) == []
    assert processor.execute(plan).results == ()


def assert_same_list(got: PostingList, term_id: int, want) -> None:
    """``got`` holds the canonical dtypes and the values of the
    reference's int64 doc ids and int32 tfs."""
    want_doc_ids, want_tfs = want
    assert got.term_id == term_id
    assert got.doc_ids.dtype == DOC_ID_DTYPE and got.tfs.dtype == TF_DTYPE
    assert want_doc_ids.dtype == np.int64 and want_tfs.dtype == np.int32
    assert np.array_equal(got.doc_ids, want_doc_ids)
    assert np.array_equal(got.tfs, want_tfs)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), num_docs=st.integers(1, 200_000),
       term_id=st.integers(0, 10**6), seed=st.integers(0, 2**32 - 1))
def test_generated_list_equals_unique_lexsort_reference(data, num_docs,
                                                        term_id, seed):
    # num_docs // 2 is the largest df the oversample-and-top-up branch
    # takes, one more the smallest the permutation branch does.
    doc_freq = data.draw(st.one_of(
        st.sampled_from((0, 1, num_docs // 2,
                         min(num_docs, num_docs // 2 + 1), num_docs)),
        st.integers(0, num_docs)))
    assert_same_list(
        generate_posting_list(term_id, doc_freq, num_docs, seed), term_id,
        reference_generate_posting_list(term_id, doc_freq, num_docs, seed))


def test_top_up_loop_equals_reference():
    """df = N // 2 draws 0.65 N ids with replacement, which cover
    1 - e**-0.65 = 0.48 of N: short of df, so the top-up loop runs."""
    for num_docs in (5_000, 60_000):
        df = num_docs // 2
        first = np.random.default_rng(
            np.random.SeedSequence(entropy=4, spawn_key=(9,))
        ).integers(0, num_docs, size=int(df * 1.3) + 8)
        assert np.unique(first).size < df
        assert_same_list(
            generate_posting_list(9, df, num_docs, seed=4), 9,
            reference_generate_posting_list(9, df, num_docs, seed=4))


def test_num_docs_beyond_packed_key_is_rejected():
    with pytest.raises(ValueError, match="2\\*\\*32"):
        generate_posting_list(0, 1, 2**32 + 1, seed=0)


# The tf draw is a table lookup over ``rng.random``; these pin it to
# ``Generator.geometric(0.45)`` itself, so a numpy whose geometric
# changes fails here rather than in a digest.

@settings(max_examples=60, deadline=None)
@given(size=st.one_of(st.integers(0, 8), st.integers(0, 10**5)),
       seed=st.integers(0, 2**63))
def test_tf_draw_equals_generator_geometric(size, seed):
    want_rng, got_rng = (np.random.default_rng(seed) for _ in range(2))
    want = want_rng.geometric(p=0.45, size=size)
    got = _draw_geometric(got_rng, size)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


def numpy_geometric_search(u: float, p: float = 0.45) -> int:
    """numpy's ``random_geometric_search`` (used for p >= 1/3), given the
    uniform it would draw."""
    x, total, prod, q = 1, p, p, 1.0 - p
    while u > total:
        prod *= q
        total += prod
        x += 1
    return x


class FixedUniforms:
    """Stands in for a generator whose ``random`` returns chosen values."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms.copy()


def test_tf_draw_at_bucket_edges_and_cumulative_sums():
    buckets = 1 << 16
    # The first and last double of every bucket, the 19 split ones
    # included, and each cumulative sum with its neighbours either side.
    edges = np.arange(buckets + 1) / buckets
    sums, prod, q = [0.45], 0.45, 1.0 - 0.45
    while sums[-1] < np.nextafter(1.0, 0.0):
        prod *= q
        sums.append(sums[-1] + prod)
    sums = np.array(sums)
    uniforms = np.concatenate([
        edges[:-1], np.nextafter(edges[1:], 0.0),
        sums, np.nextafter(sums, 0.0), np.nextafter(sums, 1.0)])
    uniforms = uniforms[uniforms < 1.0]
    split = np.flatnonzero(postings_module._TF_TABLE == 0)
    assert split.size == 19
    assert np.isin(split, np.floor(sums * buckets)).all()
    got = _draw_geometric(FixedUniforms(uniforms), uniforms.size)
    assert got.tolist() == [numpy_geometric_search(u) for u in uniforms.tolist()]


def repro_calls(fn) -> int:
    """Python call events inside ``repro/`` while ``fn`` runs."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call" and "/repro/" in frame.f_code.co_filename:
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return calls


def test_execute_makes_no_python_call_per_posting(small_index):
    """The timing-free pin on vectorisation: scoring ten times the
    postings makes the same number of Python calls."""
    terms = (0, 1, 2)
    shortest = min(len(small_index.postings(t)) for t in terms)  # and warm
    assert shortest >= 300
    processor = QueryProcessor(small_index)
    counts = []
    for n in (30, 300):
        plan = plan_of([(t, n) for t in terms])
        counts.append(repro_calls(
            lambda: processor.execute(plan)))
    assert counts[0] == counts[1]
    assert 0 < counts[0] < 50


def _generated(module, generate, config, monkeypatch):
    """The log ``generate`` builds and its generator's final state."""
    made = []

    def capturing(seed):
        made.append(make_rng(seed))
        return made[-1]

    monkeypatch.setattr(module, "make_rng", capturing)
    log = generate(config)
    (rng,) = made
    return log, rng.bit_generator.state


def assert_same_log(config, monkeypatch):
    new, new_state = _generated(querylog, generate_query_log, config,
                                monkeypatch)
    ref, ref_state = _generated(
        _querylog_reference, _querylog_reference.reference_generate_query_log,
        config, monkeypatch)
    def rows(log):
        return [(q.query_id, q.terms, q.key, q.text) for q in log.pool]

    assert rows(new) == rows(ref)
    assert all(type(t) is int for q in new.pool for t in q.terms)
    assert new.stream_ids.dtype == ref.stream_ids.dtype
    assert new.stream_ids.tolist() == ref.stream_ids.tolist()
    assert new_state == ref_state


@st.composite
def log_configs(draw):
    max_terms = draw(st.integers(1, 5))
    min_terms = draw(st.sampled_from([1, max_terms]))
    # From exactly max_terms words (every max-length query must collect
    # the whole vocabulary, colliding on the way) to a realistic head.
    vocab = draw(st.one_of(st.integers(max_terms, max_terms + 3),
                           st.integers(max_terms + 4, 400)))
    return QueryLogConfig(
        num_queries=draw(st.integers(1, 120)),
        distinct_queries=draw(st.integers(1, 60)),
        vocab_size=vocab,
        query_zipf_s=draw(st.sampled_from([0.6, 0.9, 1.2])),
        term_zipf_s=draw(st.sampled_from([0.7, 1.0, 1.4])),
        min_terms=min_terms, max_terms=max_terms,
        singleton_fraction=draw(st.sampled_from([0.0, 0.3, 1.0])),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=60, deadline=None)
@given(config=log_configs())
def test_query_log_equals_the_choice_per_query_reference(config):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_log(config, monkeypatch)


@pytest.mark.parametrize("config", [
    # Five words, queries of exactly five: every draw is a permutation of
    # the vocabulary and all but a few collide on the way there.
    QueryLogConfig(num_queries=200, distinct_queries=50, vocab_size=5,
                   min_terms=5, max_terms=5, seed=1),
    QueryLogConfig(num_queries=300, distinct_queries=80, vocab_size=6,
                   min_terms=1, max_terms=4, singleton_fraction=1.0, seed=2),
    # The shape the benchmarks draw from.
    QueryLogConfig(num_queries=1500, distinct_queries=400, vocab_size=10_000,
                   seed=7),
])
def test_query_log_reference_cases(config, monkeypatch):
    assert_same_log(config, monkeypatch)
