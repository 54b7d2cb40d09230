"""End-to-end pipeline: documents -> index -> parsed queries -> cached search.

Everything a downstream adopter would actually do: generate (or bring)
token-level documents, build an exact inverted index from them, parse
free-text queries against the lexicon, and serve them through the
paper's hybrid cache — including the dynamic-scenario TTL and the
three-level intersection cache.

Run:  python examples/documents_to_search.py
"""

from repro.core.config import CacheConfig, Policy
from repro.core.intersections import ThreeLevelCacheManager
from repro.core.manager import build_hierarchy_for
from repro.engine.builder import build_index
from repro.engine.documents import generate_documents
from repro.engine.parser import QueryParser
from repro.engine.processor import QueryProcessor

KB = 1024
MB = 1024 * KB


def main() -> None:
    # 1. Documents in (your corpus would go here).
    store = generate_documents(num_docs=3_000, vocab_size=1_500,
                               avg_doc_len=120, seed=10)
    print(f"{len(store)} documents, {store.total_tokens:,} tokens")

    # 2. Exact inverted index out.
    index = build_index(store, vocab_size=1_500)
    print(index.describe())

    # 3. Free-text queries through the parser.
    parser = QueryParser(index.lexicon)
    queries = [
        parser.parse("term00012 term00047"),
        parser.parse("TERM00012, term00047 nonsense-word"),  # normalised
        parser.parse("term00003 term00104 term00761"),
        parser.parse("term00012 term00047"),                  # a repeat
    ] * 10

    # 4. The hybrid cache in front (three-level, dynamic scenario).
    cfg = CacheConfig(
        mem_result_bytes=200 * KB, mem_list_bytes=1 * MB,
        ssd_result_bytes=2 * MB, ssd_list_bytes=8 * MB,
        policy=Policy.CBLRU,
        ttl_us=30_000_000.0,  # 30 s of simulated time
    )
    manager = ThreeLevelCacheManager(
        cfg, build_hierarchy_for(cfg, index), index,
        intersection_bytes=1 * MB, materialize_results=True,
    )
    for query in queries:
        outcome = manager.process_query(query)
    print(f"\nreplayed {manager.stats.queries} parsed queries: "
          f"hit ratio {manager.stats.combined_hit_ratio:.0%}, "
          f"mean {manager.stats.mean_response_us / 1000:.2f} ms, "
          f"intersection hits {manager.intersections.hits}")

    # 5. Real ranked results for one query (scored from built postings).
    processor = QueryProcessor(index, top_k=5, seed=1)
    plan = processor.plan(queries[0])
    entry = processor.execute(plan)
    print(f"\ntop hits for {queries[0].text!r}:")
    for rank, hit in enumerate(entry.results[:5], start=1):
        doc = store.get(hit.doc_id)
        tfs = doc.term_frequencies()
        counts = {f"term{t:05d}": tfs.get(t, 0) for t in queries[0].key}
        print(f"  {rank}. doc {hit.doc_id:4d} score {hit.score:6.2f}  {counts}")


if __name__ == "__main__":
    main()
