"""Query planning and execution."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import processor as processor_module
from repro.engine.postings import POSTING_BYTES
from repro.engine.processor import ProcessorCosts, QueryProcessor
from repro.engine.query import Query


@pytest.fixture
def processor(small_index):
    return QueryProcessor(small_index, seed=1)


def test_plan_covers_all_unique_terms(processor, small_log):
    q = small_log[0]
    plan = processor.plan(q)
    assert {d.term_id for d in plan.demands} == set(q.key)


def test_plan_demands_are_consistent(processor, small_log):
    for q in small_log.head(50):
        for d in processor.plan(q).demands:
            assert 0 < d.needed_bytes <= d.list_bytes
            assert 0 < d.pu <= 1.0
            assert d.postings == d.needed_bytes // POSTING_BYTES
            info = processor.index.lexicon.term(d.term_id)
            assert d.list_bytes == info.list_bytes


def test_plan_totals(processor, small_log):
    plan = processor.plan(small_log[0])
    assert plan.total_postings == sum(d.postings for d in plan.demands)
    assert plan.total_needed_bytes == sum(d.needed_bytes for d in plan.demands)


def test_cpu_time_scales_with_postings(processor):
    q_small = Query(0, (processor.index.num_terms - 1,))
    q_big = Query(1, (0, 1))  # head terms have the longest lists
    t_small = processor.cpu_time_us(processor.plan(q_small))
    t_big = processor.cpu_time_us(processor.plan(q_big))
    assert t_big > t_small
    costs = processor.costs
    assert t_small >= costs.fixed_us + costs.per_result_us * processor.top_k


def test_execute_materialized_scores_real_postings(processor, small_log):
    plan = processor.plan(small_log[0])
    entry = processor.execute(plan)
    assert len(entry) > 0
    scores = [r.score for r in entry.results]
    assert scores == sorted(scores, reverse=True)
    # Every returned doc must appear in some queried posting list.
    all_docs = set()
    for d in plan.demands:
        all_docs.update(processor.index.postings(d.term_id).doc_ids.tolist())
    assert all(r.doc_id in all_docs for r in entry.results)


def test_materialized_ranking_respects_prefix(processor):
    """Only the traversed prefix may contribute to scores."""
    term = 0
    plan = processor.plan(Query(0, (term,)))
    entry = processor.execute(plan)
    plist = processor.index.postings(term)
    prefix_docs = set(plist.doc_ids[: plan.demands[0].postings].tolist())
    assert all(r.doc_id in prefix_docs for r in entry.results)


def test_top_k_validation(small_index):
    with pytest.raises(ValueError):
        QueryProcessor(small_index, top_k=0)


def test_custom_costs(small_index, monkeypatch):
    costs = ProcessorCosts(fixed_us=0.0, per_posting_us=1.0, per_result_us=0.0)
    monkeypatch.setattr(processor_module, "COSTS", costs)
    proc = QueryProcessor(small_index, seed=2)
    plan = proc.plan(Query(0, (0,)))
    assert proc.cpu_time_us(plan) == pytest.approx(plan.total_postings)


# -- block-drawn wobbles ------------------------------------------------------

def _per_query_plan(index, rng, query):
    """``plan`` as it read with one ``lognormal(size=len(key))`` call and
    one ``tolist`` per query: the stream the block draws must reproduce."""
    demands = []
    key = query.key
    wobbles = rng.lognormal(mean=0.0, sigma=0.30, size=len(key))
    for term_id, wobble in zip(key, wobbles.tolist()):
        info = index.lexicon.term(term_id)
        pu = info.utilization * wobble
        pu = 0.01 if pu < 0.01 else (1.0 if pu > 1.0 else pu)
        postings = max(1, int(round(info.doc_freq * pu)))
        needed = max(1, round(postings * info.list_bytes / info.doc_freq))
        demands.append((term_id, info.list_bytes, needed,
                        needed / info.list_bytes, postings))
    return demands


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(block=st.sampled_from((1, 3, 7, processor_module.WOBBLE_BLOCK)),
       seed=st.integers(0, 2**32 - 1),
       keys=st.lists(st.lists(st.integers(0, 499), min_size=1, max_size=12),
                     min_size=1, max_size=60))
def test_block_drawn_wobbles_equal_per_query_draws(small_index, block, seed,
                                                   keys):
    """Plans from the block-drawing processor equal per-query draws, bit
    for bit, whatever the key lengths and wherever the block boundaries
    (a key longer than the block refills mid-query)."""
    with mock.patch.object(processor_module, "WOBBLE_BLOCK", block):
        processor = QueryProcessor(small_index, seed=seed)
        rng = np.random.default_rng(seed)
        for i, terms in enumerate(keys):
            query = Query(i, tuple(terms))
            got = [tuple(d) for d in processor.plan(query).demands]
            assert got == _per_query_plan(small_index, rng, query), i


def test_block_drawn_wobbles_cross_the_real_block_boundary(small_index):
    """Over 1 024 wobbles, on the committed block size."""
    processor = QueryProcessor(small_index, seed=9)
    rng = np.random.default_rng(9)
    lengths = np.random.default_rng(0).integers(1, 8, size=600)
    assert lengths.sum() > 2 * processor_module.WOBBLE_BLOCK
    for i, n in enumerate(lengths.tolist()):
        query = Query(i, tuple(range(i % 400, i % 400 + n)))
        got = [tuple(d) for d in processor.plan(query).demands]
        assert got == _per_query_plan(small_index, rng, query), i
