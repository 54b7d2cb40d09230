"""Every generated posting list and every executed result, pinned by digest.

One fixed compressed index and about a hundred distinct queries served
through ``CacheManager(materialize_results=True)``: each list
``generate_posting_list`` makes (term id, dtypes, raw bytes, in the order
they are made) and each executed ranking (``doc_id`` and ``score.hex()``)
feed one SHA-256.  The digest was recorded before the generator's tf draw
and the scorer's candidate set were rewritten; a change to either that
moves a single bit of a single list or score fails here, wherever the
Hypothesis properties in ``test_engine_equivalence.py`` happen not to look.
When the synthetic lists are *meant* to change, replace ``EXPECTED`` with
the digest the failure prints and say so in the changelog.
"""

import hashlib

from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine import index as index_module
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.engine.querylog import QueryLogConfig, generate_query_log

MB = 1024 * 1024

EXPECTED = "43d9d118a157c16ba901f9929a8fde2421e092d2d1e68ef0d742d4b82d64dd42"


class RecordingProcessor(QueryProcessor):
    """A processor that keeps every entry it executes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entries = []

    def execute(self, plan, materialize=False):
        entry = super().execute(plan, materialize)
        self.entries.append(entry)
        return entry


def test_generated_lists_and_executed_results_are_unchanged(monkeypatch):
    generated = []
    real_generate = index_module.generate_posting_list

    def recording_generate(*args, **kwargs):
        plist = real_generate(*args, **kwargs)
        generated.append(plist)
        return plist

    monkeypatch.setattr(index_module, "generate_posting_list",
                        recording_generate)
    index = InvertedIndex(CorpusConfig.paper_scale(20_000, seed=42),
                          compressed=True)
    config = CacheConfig.paper_split(4 * MB, 32 * MB, policy=Policy.CBLRU)
    processor = RecordingProcessor(index, top_k=config.top_k, seed=7)
    manager = CacheManager(config, build_hierarchy_for(config, index), index,
                           processor, materialize_results=True)
    log = generate_query_log(QueryLogConfig(
        num_queries=100, distinct_queries=100, singleton_fraction=0.0,
        vocab_size=10_000, seed=3))
    for query in log.pool:
        manager.process_query(query)

    # A few pool queries share a term set, so their repeat is a result hit.
    assert 90 <= len(processor.entries) <= len(log.pool)
    assert len(generated) > 100
    digest = hashlib.sha256()
    for plist in generated:
        digest.update(f"{plist.term_id}:{plist.doc_ids.dtype.str}:"
                      f"{plist.tfs.dtype.str}:{len(plist)}".encode())
        digest.update(plist.doc_ids.tobytes())
        digest.update(plist.tfs.tobytes())
    for entry in processor.entries:
        digest.update(repr(entry.query_key).encode())
        for result in entry.results:
            digest.update(f"{result.doc_id}:{result.score.hex()};".encode())
    assert digest.hexdigest() == EXPECTED
