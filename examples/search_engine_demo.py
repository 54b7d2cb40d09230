"""The search-engine substrate on its own: real top-k retrieval.

Shows the Lucene-like machinery the cache sits on: frequency-sorted
posting lists, early-terminated traversal (the utilization rate PU),
tf-idf scoring with materialized postings, and the on-disk layout that
turns queries into the I/O pattern of Fig. 1(b).

Run:  python examples/search_engine_demo.py
"""

from repro import CorpusConfig, InvertedIndex, Query, QueryProcessor
from repro.trace import analyze_trace, trace_from_engine
from repro.engine.querylog import QueryLogConfig, generate_query_log


def main() -> None:
    index = InvertedIndex(CorpusConfig(num_docs=100_000, vocab_size=10_000,
                                       avg_doc_len=250, seed=5))
    processor = QueryProcessor(index, top_k=10, seed=2)
    print(index.describe())

    # A multi-term query over mid-frequency terms.
    query = Query(query_id=0, terms=(120, 450, 2210),
                  text="term00120 term00450 term02210")
    plan = processor.plan(query)
    print(f"\nquery: {query.text!r}")
    for demand in plan.demands:
        info = index.lexicon.term(demand.term_id)
        print(f"  {info.text}: df={info.doc_freq}, "
              f"list={info.list_bytes / 1024:.0f} KB, "
              f"traversal reads {demand.pu:.0%} "
              f"({demand.needed_bytes / 1024:.0f} KB, "
              f"{demand.postings} postings)")
    print(f"  CPU cost: {processor.cpu_time_us(plan):.0f} us")

    entry = processor.execute(plan)
    print(f"\ntop {len(entry)} results (tf-idf over traversed prefixes):")
    for rank, hit in enumerate(entry.results, start=1):
        print(f"  {rank:2d}. doc {hit.doc_id:6d}  score {hit.score:.3f}")
    print(f"result entry size if cached: {entry.nbytes / 1024:.1f} KB")

    # The I/O this engine generates (Fig. 1b's measurement).
    log = generate_query_log(QueryLogConfig(
        num_queries=300, distinct_queries=150, vocab_size=10_000, seed=3))
    trace = trace_from_engine(index, log)
    analysis = analyze_trace(trace)
    print(f"\ndisk trace of 300 queries: {analysis.summary()}")


if __name__ == "__main__":
    main()
