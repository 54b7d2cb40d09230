"""repro — SSD-based hybrid storage architecture for large-scale search engines.

A full reproduction of Li et al., *An Efficient SSD-based Hybrid Storage
Architecture for Large-scale Search Engines* (ICPP 2012): a two-level
cache (DRAM L1, SSD L2) in front of an HDD-resident inverted index, with
the paper's data selection (Formula 1/2 + TEV), log-based data placement
(write buffer + 128 KB result blocks) and cost-based replacement policies
(CBLRU, CBSLRU) — plus every substrate the evaluation needs: a NAND/FTL
SSD simulator, an HDD model, a synthetic search engine, and I/O trace
tooling.

Quickstart::

    from repro import (CacheConfig, CacheManager, InvertedIndex,
                       build_hierarchy_for, CorpusConfig,
                       generate_query_log, QueryLogConfig)

    index = InvertedIndex(CorpusConfig.paper_scale(1_000_000))
    log = generate_query_log(QueryLogConfig(num_queries=5_000))
    cfg = CacheConfig.paper_split(mem_bytes=48 << 20, ssd_bytes=512 << 20)
    mgr = CacheManager(cfg, build_hierarchy_for(cfg, index), index)
    for query in log:
        mgr.process_query(query)
    print(mgr.stats.combined_hit_ratio, mgr.ssd.erase_count)
"""

from repro.core.config import CacheConfig, Policy, Scheme
from repro.core.intersections import ThreeLevelCacheManager
from repro.core.manager import CacheManager, QueryOutcome, build_hierarchy_for
from repro.core.stats import CacheStats, Situation
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.engine.query import Query
from repro.engine.querylog import QueryLog, QueryLogConfig, generate_query_log
from repro.flash.constants import FlashConfig
from repro.flash.ssd import SimulatedSSD
from repro.hdd.disk import SimulatedHDD
from repro.hdd.geometry import DiskGeometry
from repro.storage.hierarchy import HierarchyConfig, StorageHierarchy
from repro.workloads.retrieval import RunResult, run_cached, run_uncached

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "Policy",
    "Scheme",
    "CacheManager",
    "ThreeLevelCacheManager",
    "QueryOutcome",
    "build_hierarchy_for",
    "CacheStats",
    "Situation",
    "CorpusConfig",
    "InvertedIndex",
    "QueryProcessor",
    "Query",
    "QueryLog",
    "QueryLogConfig",
    "generate_query_log",
    "FlashConfig",
    "SimulatedSSD",
    "SimulatedHDD",
    "DiskGeometry",
    "HierarchyConfig",
    "StorageHierarchy",
    "RunResult",
    "run_cached",
    "run_uncached",
    "__version__",
]
