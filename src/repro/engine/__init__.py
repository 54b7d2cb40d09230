"""Search-engine substrate (the paper's Lucene 3.0.0 + enwiki testbed).

A statistically faithful stand-in for a Lucene index over 5 M Wikipedia
articles: a Zipf vocabulary with heavy-tailed posting-list sizes, posting
lists sorted by within-document term frequency (the *filtered vector
model* layout of Saraiva et al. [18] that makes partial traversal
effective), an on-disk layout mapping terms to LBA extents, a top-k query
processor with early termination, and an AOL-style query-log generator.
"""

from repro.engine.builder import MaterializedIndex, build_index
from repro.engine.corpus import CorpusConfig, CorpusStats, build_corpus_stats
from repro.engine.documents import Document, DocumentStore, generate_documents
from repro.engine.parser import QueryParser
from repro.engine.lexicon import Lexicon, TermInfo
from repro.engine.postings import (DOC_ID_DTYPE, POSTING_BYTES, TF_DTYPE,
                                   PostingList, generate_posting_list)
from repro.engine.layout import IndexLayout, TermExtent
from repro.engine.index import InvertedIndex
from repro.engine.query import Query
from repro.engine.querylog import QueryLogConfig, QueryLog, generate_query_log
from repro.engine.results import ResultEntry, SearchResult
from repro.engine.processor import QueryProcessor, QueryPlan, ListDemand, ProcessorCosts

__all__ = [
    "MaterializedIndex",
    "build_index",
    "Document",
    "DocumentStore",
    "generate_documents",
    "QueryParser",
    "CorpusConfig",
    "CorpusStats",
    "build_corpus_stats",
    "Lexicon",
    "TermInfo",
    "POSTING_BYTES",
    "DOC_ID_DTYPE",
    "TF_DTYPE",
    "PostingList",
    "generate_posting_list",
    "IndexLayout",
    "TermExtent",
    "InvertedIndex",
    "Query",
    "QueryLogConfig",
    "QueryLog",
    "generate_query_log",
    "ResultEntry",
    "SearchResult",
    "QueryProcessor",
    "QueryPlan",
    "ListDemand",
    "ProcessorCosts",
]
