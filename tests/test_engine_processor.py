"""Query planning and execution."""

import pytest

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


def test_custom_costs(small_index):
    costs = ProcessorCosts(fixed_us=0.0, per_posting_us=1.0, per_result_us=0.0)
    proc = QueryProcessor(small_index, costs=costs, seed=2)
    plan = proc.plan(Query(0, (0,)))
    assert proc.cpu_time_us(plan) == pytest.approx(plan.total_postings)
