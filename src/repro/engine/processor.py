"""Top-k query processor with early termination.

Processing follows the filtered vector model [18] the paper assumes:
posting lists are frequency-sorted, so the processor traverses only a
prefix of each list — the *utilization rate* PU — before terminating.

The processor separates **planning** (how much of each list this query
will touch — what the cache manager needs) from **execution** (actually
scoring postings — what the examples need), so hit-ratio and latency
experiments can run at full speed without materialising posting data,
while end-to-end examples still produce real ranked results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro._hot import HOT
from repro.engine.index import InvertedIndex
from repro.engine.postings import POSTING_BYTES
from repro.engine.query import Query
from repro.engine.results import DEFAULT_TOP_K, ResultEntry, SearchResult
from repro.sim.rng import make_rng

__all__ = ["ProcessorCosts", "ListDemand", "QueryPlan", "QueryProcessor"]


@dataclass(frozen=True)
class ProcessorCosts:
    """CPU cost model of retrieval computation (charged to virtual time)."""

    #: parse + dictionary lookup per query
    fixed_us: float = 100.0
    #: score accumulation per posting traversed
    per_posting_us: float = 0.05
    #: assembling one result summary (snippet generation etc.)
    per_result_us: float = 2.0


class ListDemand(NamedTuple):
    """How much of one term's posting list this query traversal needs.

    A named tuple rather than a frozen dataclass: planning builds one per
    term per query, so construction sits on the serving hot path.
    """

    term_id: int
    #: full on-disk list size
    list_bytes: int
    #: bytes of the frequency-sorted prefix this traversal reads
    needed_bytes: int
    #: realized utilization rate for this traversal (needed/list)
    pu: float
    #: postings actually scored
    postings: int


class QueryPlan(NamedTuple):
    """The I/O and CPU demands of processing one query."""

    query: Query
    demands: tuple[ListDemand, ...]

    @property
    def total_postings(self) -> int:
        return sum(d.postings for d in self.demands)

    @property
    def total_needed_bytes(self) -> int:
        return sum(d.needed_bytes for d in self.demands)


class QueryProcessor:
    """Plans and executes queries over an :class:`InvertedIndex`."""

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
        self._rng = make_rng(seed)
        # Surrogate rankings are pure functions of the query key (and
        # top_k / corpus size), so repeat misses reuse the entry.
        self._surrogates: dict[tuple[int, ...], ResultEntry] = {}
        self._surrogate_steps: tuple[np.ndarray, tuple[float, ...]] | None = None

    # -- planning -------------------------------------------------------------

    def plan(self, query: Query) -> QueryPlan:
        """Determine per-term traversal depth for this query.

        The realized utilization wobbles around the term's base rate
        (different query contexts terminate at different depths), exactly
        the behaviour Formula 1 captures with its PU parameter.
        """
        demands = []
        key = query.key
        # Traversal depth varies query to query around the term's base
        # utilization: different query mixes terminate at different
        # depths (sigma 0.3 spreads realized PU roughly 0.55x-1.8x).
        # One vectorized draw per query consumes the identical RNG
        # stream as per-term scalar draws.
        wobbles = self._rng.lognormal(mean=0.0, sigma=0.30, size=len(key))
        term = self.index.lexicon.term
        for term_id, wobble in zip(key, wobbles.tolist()):
            info = term(term_id)
            pu = info.utilization * wobble
            pu = 0.01 if pu < 0.01 else (1.0 if pu > 1.0 else pu)
            postings = max(1, int(round(info.doc_freq * pu)))
            # Bytes follow the on-disk format (8 B/posting raw, less when
            # the index is compressed).
            needed = max(1, round(postings * info.list_bytes / info.doc_freq))
            demands.append(
                ListDemand(
                    term_id=term_id,
                    list_bytes=info.list_bytes,
                    needed_bytes=needed,
                    pu=needed / info.list_bytes,
                    postings=postings,
                )
            )
        return QueryPlan(query=query, demands=tuple(demands))

    def cpu_time_us(self, plan: QueryPlan) -> float:
        """Retrieval computation time for a planned query."""
        return (
            self.costs.fixed_us
            + self.costs.per_posting_us * plan.total_postings
            + self.costs.per_result_us * self.top_k
        )

    # -- execution ----------------------------------------------------------------

    def execute(self, plan: QueryPlan, materialize: bool = False) -> ResultEntry:
        """Produce the top-k result entry for a planned query.

        With ``materialize=True`` real posting data is fetched and scored
        (tf-idf with accumulators); otherwise a deterministic surrogate
        ranking is returned — byte-identical in size, so cache behaviour
        is unaffected, and no posting list is generated or read, which is
        what lets large sweeps run.
        """
        if materialize:
            results = self._score(plan)
        else:
            key = plan.query.key
            cached = self._surrogates.get(key)
            if cached is None:
                cached = self._surrogates[key] = ResultEntry(
                    query_key=key, results=tuple(self._surrogate(plan)),
                    top_k=self.top_k,
                )
            return cached
        return ResultEntry(
            query_key=plan.query.key, results=tuple(results), top_k=self.top_k
        )

    def _score(self, plan: QueryPlan) -> list[SearchResult]:
        """tf-idf scoring over the traversed prefixes.

        Term-at-a-time as whole-array passes.  The prefixes are laid end
        to end in demand order and ``np.bincount`` adds weights in array
        order, so a document's score is the same additions in the same
        order as a per-posting accumulator loop makes: scores are
        bit-identical to that loop, not merely close.  Ranking is
        descending score, ties to the smaller doc id.
        """
        docs, parts = [], []
        for demand in plan.demands:
            plist = self.index.postings(demand.term_id)
            prefix_n = min(demand.postings, len(plist))
            if prefix_n == 0:
                continue
            docs.append(plist.doc_ids[:prefix_n])
            part = np.sqrt(plist.tfs[:prefix_n], dtype=np.float64)
            part *= self.index.idf(demand.term_id)
            parts.append(part)
        if not docs:
            return []
        doc = np.concatenate(docs)
        HOT.postings_decoded += doc.size
        totals = np.bincount(doc, weights=np.concatenate(parts))
        # Touched documents come from the postings, not from totals != 0: a
        # posting that scores 0.0 still makes its document a candidate.  A
        # bool bitmap, not flatnonzero(bincount(doc)): on int64 counts numpy
        # takes its per-element path, four times the price.
        seen = np.zeros(totals.size, dtype=np.bool_)
        seen[doc] = True
        touched = np.flatnonzero(seen)
        totals = totals[touched]
        cut = touched.size - self.top_k
        if cut > 0:
            # Drop everything below the k-th best score before ordering;
            # ties with it survive and the sort below resolves them.
            keep = totals >= np.partition(totals, cut)[cut]
            touched, totals = touched[keep], totals[keep]
        order = np.lexsort((touched, -totals))[: self.top_k]
        return list(map(
            SearchResult, touched[order].tolist(), totals[order].tolist()
        ))

    def _surrogate(self, plan: QueryPlan) -> list[SearchResult]:
        """Deterministic placeholder ranking derived from the query key."""
        base = hash(plan.query.key) & 0x7FFFFFFF
        n_docs = self.index.num_docs
        k = min(self.top_k, n_docs)
        steps = self._surrogate_steps
        if steps is None or len(steps[1]) != k:
            # Per-rank constants: the doc-id stride and the descending
            # score ladder only depend on k, not on the query.
            steps = self._surrogate_steps = (
                7919 * np.arange(k, dtype=np.int64),
                tuple(float(k - i) for i in range(k)),
            )
        strides, scores = steps
        # base < 2**31 and the largest stride is 7919 * (k - 1): the sum
        # stays far inside int64, so this is the scalar (base + s) % n.
        return list(map(SearchResult, ((base + strides) % n_docs).tolist(), scores))
