"""Exact pins of the bytes a materialised posting list holds in memory.

A posting is a 4 B ``uint32`` doc id and a 2 B ``uint16`` tf, the paper's
field widths (``POSTING_BYTES`` adds 2 B of amortised skip data on disk
only).  Both pins are byte counts of numpy arrays, so they repeat exactly
on every machine.

| what | int64 + int32 (B) | uint32 + uint16 (B) | fall |
|---|---|---|---|
| one posting | 12 | 6 | 50 % |
| postings memo after the fixed run below (733 443 postings in 208 lists) | 8 801 316 | 4 400 658 | 50 % |

Doc ids were int64 and tfs int32 before postings took the field widths.
"""

import numpy as np

from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.postings import generate_posting_list
from repro.engine.processor import QueryProcessor
from repro.engine.querylog import QueryLogConfig, generate_query_log

MB = 1024 * 1024

#: bytes one posting holds in memory: 4 B doc id + 2 B tf
BYTES_PER_POSTING = 6


def array_bytes(plist) -> int:
    return plist.doc_ids.nbytes + plist.tfs.nbytes


def test_a_posting_holds_six_bytes():
    for df, num_docs in ((0, 100), (1, 100), (300, 5_000), (900, 1_000)):
        plist = generate_posting_list(3, df, num_docs, seed=1)
        assert array_bytes(plist) == BYTES_PER_POSTING * len(plist)
        prefix = plist.prefix(0.5)
        assert array_bytes(prefix) == BYTES_PER_POSTING * len(prefix)


def test_postings_memo_bytes_after_a_fixed_compressed_run():
    """The memo a fixed compressed-index run leaves behind (the run
    ``test_engine_result_identity.py`` digests) holds exactly 6 B per
    posting: 4 400 658 B, against 8 801 316 B at 12 B per posting."""
    index = InvertedIndex(CorpusConfig.paper_scale(20_000, seed=42),
                          compressed=True)
    config = CacheConfig.paper_split(4 * MB, 32 * MB, policy=Policy.CBLRU)
    processor = QueryProcessor(index, top_k=config.top_k, seed=7)
    manager = CacheManager(config, build_hierarchy_for(config, index), index,
                           processor, materialize_results=True)
    log = generate_query_log(QueryLogConfig(
        num_queries=100, distinct_queries=100, singleton_fraction=0.0,
        vocab_size=10_000, seed=3))
    for query in log.pool:
        manager.process_query(query)

    memo = list(index._postings_cache.values())
    postings = sum(len(p) for p in memo)
    assert (len(memo), postings) == (208, 733_443)
    held = sum(array_bytes(p) for p in memo)
    assert held == BYTES_PER_POSTING * postings == 4_400_658
    assert all(p.doc_ids.dtype == np.uint32 and p.tfs.dtype == np.uint16
               for p in memo)
