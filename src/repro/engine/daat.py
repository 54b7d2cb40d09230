"""Document-at-a-time (DAAT) query processing.

The default processor models term-at-a-time traversal over
frequency-sorted lists.  Lucene itself evaluates document-at-a-time:
lists are walked in doc-id order, the *rarest* term drives candidate
generation, and frequent terms are probed via skip pointers only at
candidate documents (MaxScore-style pruning).  The I/O profile inverts:
rare lists are read fully, common lists barely — useful both as a second
engine model and as an ablation on how the cache policies respond to a
different utilization shape.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro._hot import HOT
from repro.engine.index import InvertedIndex
from repro.engine.postings import SKIP_INTERVAL
from repro.engine.processor import ListDemand, ProcessorCosts, QueryPlan
from repro.engine.query import Query
from repro.engine.results import DEFAULT_TOP_K, ResultEntry, SearchResult

__all__ = ["DaatQueryProcessor"]


class DaatQueryProcessor:
    """DAAT processor with the same interface as ``QueryProcessor``."""

    def __init__(
        self,
        index: InvertedIndex,
        costs: ProcessorCosts | None = None,
        top_k: int = DEFAULT_TOP_K,
        seed: int = 1234,
    ) -> None:
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.index = index
        self.costs = costs or ProcessorCosts()
        self.top_k = top_k
        self._rng = np.random.default_rng(seed)

    # -- planning ----------------------------------------------------------

    def plan(self, query: Query) -> QueryPlan:
        """DAAT demand model.

        The rarest term's list drives the scan and is fully traversed;
        each other list is probed once per candidate (plus the skip
        blocks touched), so its traversal is
        ``min(df, candidates * SKIP_INTERVAL)`` postings.
        """
        infos = [self.index.lexicon.term(t) for t in query.key]
        min_df = min(info.doc_freq for info in infos)
        demands = []
        for info in infos:
            if info.doc_freq == min_df:
                postings = info.doc_freq  # the driving list: full scan
            else:
                wobble = float(self._rng.lognormal(mean=0.0, sigma=0.2))
                touched = int(min_df * SKIP_INTERVAL * wobble)
                postings = max(1, min(info.doc_freq, touched))
            needed = max(1, round(postings * info.list_bytes / info.doc_freq))
            demands.append(
                ListDemand(
                    term_id=info.term_id,
                    list_bytes=info.list_bytes,
                    needed_bytes=needed,
                    pu=needed / info.list_bytes,
                    postings=postings,
                )
            )
        return QueryPlan(query=query, demands=tuple(demands))

    def cpu_time_us(self, plan: QueryPlan) -> float:
        return (
            self.costs.fixed_us
            + self.costs.per_posting_us * plan.total_postings
            + self.costs.per_result_us * self.top_k
        )

    # -- execution -------------------------------------------------------------

    def execute(self, plan: QueryPlan, materialize: bool = False) -> ResultEntry:
        if materialize:
            results = self._score(plan)
        else:
            base = hash(plan.query.key) & 0x7FFFFFFF
            n_docs = self.index.num_docs
            k = min(self.top_k, n_docs)
            results = [
                SearchResult(doc_id=(base + 6007 * i) % n_docs, score=float(k - i))
                for i in range(k)
            ]
        return ResultEntry(
            query_key=plan.query.key, results=tuple(results), top_k=self.top_k
        )

    def _score(self, plan: QueryPlan) -> list[SearchResult]:
        """Exact DAAT scoring: candidates from the rarest list, the other
        lists probed by doc id."""
        key = plan.query.key
        lists = {}
        for term in key:
            plist = self.index.postings(term)
            order = np.argsort(plist.doc_ids, kind="stable")
            # float64 tfs: np.sqrt of a uint16 scalar rounds in float32.
            lists[term] = (plist.doc_ids[order],
                           plist.tfs[order].astype(np.float64))
        driver = min(key, key=lambda t: lists[t][0].size)
        drv_docs, drv_tfs = lists[driver]
        idfs = {t: self.index.idf(t) for t in key}

        heap: list[tuple[float, int]] = []
        for pos in range(drv_docs.size):
            HOT.daat_advance_steps += 1
            doc = int(drv_docs[pos])
            score = float(np.sqrt(drv_tfs[pos])) * idfs[driver]
            for term in key:
                if term == driver:
                    continue
                docs, tfs = lists[term]
                HOT.daat_advance_steps += 1
                i = int(np.searchsorted(docs, doc))
                if i < docs.size and docs[i] == doc:
                    score += float(np.sqrt(tfs[i])) * idfs[term]
            if len(heap) < self.top_k:
                heapq.heappush(heap, (score, -doc))
            elif (score, -doc) > heap[0]:
                heapq.heapreplace(heap, (score, -doc))
        ranked = sorted(heap, key=lambda sd: (-sd[0], -sd[1]))
        return [SearchResult(doc_id=-d, score=s) for s, d in ranked]
