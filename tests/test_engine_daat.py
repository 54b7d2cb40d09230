"""DAAT query processing."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.config import CacheConfig
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.daat import DaatQueryProcessor
from repro.engine.postings import (DOC_ID_DTYPE, POSTING_BYTES, TF_DTYPE,
                                   PostingList)
from repro.engine.processor import QueryPlan, QueryProcessor
from repro.engine.query import Query


@pytest.fixture
def daat(small_index):
    return DaatQueryProcessor(small_index, seed=2)


def _rare_and_common(index):
    df = index.stats.doc_freqs
    rare = int(np.argmin(df))
    common = int(np.argmax(df))
    return rare, common


def test_driving_list_fully_traversed(daat, small_index):
    rare, common = _rare_and_common(small_index)
    plan = daat.plan(Query(0, (rare, common)))
    by_term = {d.term_id: d for d in plan.demands}
    assert by_term[rare].pu == pytest.approx(1.0)
    assert by_term[rare].postings == small_index.stats.doc_freqs[rare]


def test_common_list_barely_touched(daat, small_index):
    rare, common = _rare_and_common(small_index)
    df_rare = int(small_index.stats.doc_freqs[rare])
    df_common = int(small_index.stats.doc_freqs[common])
    if df_common < 40 * df_rare:
        pytest.skip("corpus too uniform for a meaningful skip ratio")
    plan = daat.plan(Query(0, (rare, common)))
    by_term = {d.term_id: d for d in plan.demands}
    assert by_term[common].pu < 1.0
    assert by_term[common].postings < df_common


def test_single_term_query_is_full_scan(daat, small_index):
    term = 5
    plan = daat.plan(Query(0, (term,)))
    assert plan.demands[0].postings == small_index.stats.doc_freqs[term]


def test_demands_consistent(daat, small_log):
    for q in small_log.head(40):
        for d in daat.plan(q).demands:
            assert 0 < d.needed_bytes <= d.list_bytes
            assert d.postings == d.needed_bytes // POSTING_BYTES
            assert 0 < d.pu <= 1.0


def test_top_k_validation(small_index):
    with pytest.raises(ValueError):
        DaatQueryProcessor(small_index, top_k=0)


def test_materialized_scoring_is_exact_conjunction_biased(daat, small_index):
    rare, common = _rare_and_common(small_index)
    plan = daat.plan(Query(0, (rare, common)))
    entry = daat.execute(plan, materialize=True)
    assert len(entry) > 0
    scores = [r.score for r in entry.results]
    assert scores == sorted(scores, reverse=True)
    # Every result contains the driving (rare) term.
    rare_docs = set(small_index.postings(rare).doc_ids.tolist())
    assert all(r.doc_id in rare_docs for r in entry.results)


def test_daat_scores_match_taat_on_driving_term_docs(small_index):
    """For docs containing the rare term, DAAT's score equals the exact
    two-term tf-idf score (it probes the common list exactly)."""
    daat = DaatQueryProcessor(small_index, top_k=5, seed=1)
    rare, common = _rare_and_common(small_index)
    plan = daat.plan(Query(0, (rare, common)))
    entry = daat.execute(plan, materialize=True)
    top = entry.results[0]
    # Recompute by hand.
    expected = 0.0
    for term in (rare, common):
        plist = small_index.postings(term)
        mask = plist.doc_ids == top.doc_id
        if mask.any():
            expected += float(np.sqrt(plist.tfs[mask][0])) * small_index.idf(term)
    assert top.score == pytest.approx(expected)


def test_materialized_scores_take_float64_square_roots():
    """A uint16 tf's square root is taken in float64 (a numpy uint16
    scalar would round it in float32): scores are exact sums."""
    def plist(term, docs, tfs):
        return PostingList(term, np.array(docs, dtype=DOC_ID_DTYPE),
                           np.array(tfs, dtype=TF_DTYPE))

    lists = {0: plist(0, [4, 9], [3, 2]), 1: plist(1, [9], [5])}
    idfs = {0: 1.0, 1: 0.7}
    index = SimpleNamespace(postings=lists.__getitem__, idf=idfs.__getitem__)
    results = DaatQueryProcessor(index, top_k=2)._score(
        QueryPlan(Query(0, (0, 1)), ()))
    # Term 1's single posting drives the scan; term 0 is probed at doc 9.
    assert [(r.doc_id, r.score) for r in results] == [
        (9, math.sqrt(5) * 0.7 + math.sqrt(2) * 1.0)]


def test_surrogate_mode_deterministic(daat, small_log):
    plan = daat.plan(small_log[0])
    a = daat.execute(plan)
    b = daat.execute(plan)
    assert [r.doc_id for r in a.results] == [r.doc_id for r in b.results]


def test_daat_works_with_cache_manager(small_index, small_log):
    """The cache manager accepts the DAAT processor unchanged."""
    cfg = CacheConfig.paper_split(mem_bytes=1 << 20, ssd_bytes=8 << 20,
                                  policy="cblru")
    h = build_hierarchy_for(cfg, small_index)
    mgr = CacheManager(cfg, h, small_index,
                       processor=DaatQueryProcessor(small_index, top_k=cfg.top_k))
    for q in small_log.head(100):
        mgr.process_query(q)
    assert mgr.stats.queries == 100
    assert mgr.stats.combined_hit_ratio > 0


def test_daat_and_taat_agree_on_exhaustive_single_term(small_index):
    """With one term both engines traverse the whole list, so the exact
    rankings coincide."""
    term = int(np.argmin(small_index.stats.doc_freqs))
    q = Query(0, (term,))
    taat = QueryProcessor(small_index, top_k=10, seed=1)
    daat = DaatQueryProcessor(small_index, top_k=10, seed=1)
    # Force TAAT to traverse fully by using the plan's full-list demand.
    t_entry = taat.execute(
        type(taat.plan(q))(query=q, demands=(
            taat.plan(q).demands[0].__class__(
                term_id=term,
                list_bytes=small_index.lexicon.list_bytes(term),
                needed_bytes=small_index.lexicon.list_bytes(term),
                pu=1.0,
                postings=int(small_index.stats.doc_freqs[term]),
            ),
        )),
    )
    d_entry = daat.execute(daat.plan(q), materialize=True)
    assert {r.doc_id for r in t_entry.results} == {r.doc_id for r in d_entry.results}
