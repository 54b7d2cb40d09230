"""The paper's contribution: the SSD-based two-level cache architecture.

* :mod:`repro.core.config` — capacities, policy knobs, the Table II/III
  constants (result entry 20 KB, K = 50, SB = 128 KB, W = 5, ...).
* :mod:`repro.core.selection` — data selection (Formula 1's SC, Formula
  2's efficiency value EV, the TEV threshold).
* :mod:`repro.core.placement` — data placement (write buffer, result
  block (RB) assembly, block-aligned log layout on SSD).
* :mod:`repro.core.replacement` — the victim rules ``CacheConfig.policy``
  selects: the LRU baseline's recency order, or CBLRU/CBSLRU's Fig. 12
  min-EV memory victim, Fig. 11 max-IREN result block and Fig. 13
  staged list search (CBSLRU's static partition is
  ``CacheConfig.uses_static``).
* :mod:`repro.core.result_cache` / :mod:`repro.core.list_cache` — the
  layered L1<->L2 flows for results and inverted lists.
* :mod:`repro.core.events` — the cache life-cycle hook bus (on_admit,
  on_evict, on_flush, on_l2_victim) for observers.
* :mod:`repro.core.manager` — the cache manager of Fig. 2 (selection /
  query / replacement management) orchestrating memory, SSD and HDD.
"""

from repro.core.config import CacheConfig, Policy, Scheme
from repro.core.entries import CachedList, CachedResult, EntryState, ResultBlock
from repro.core.events import (
    AdmitEvent,
    CacheEvents,
    EventCounter,
    EvictEvent,
    FlushEvent,
    L2VictimEvent,
)
from repro.core.lru import LruList
from repro.core.selection import SelectionPolicy, efficiency_value, ssd_cache_blocks
from repro.core.stats import CacheStats, Situation
from repro.core.placement import WriteBuffer
from repro.core.replacement import Replacement
from repro.core.result_cache import ResultCache
from repro.core.list_cache import ListCache
from repro.core.ssd_region import BlockRegion, ByteRegion
from repro.core.intersections import (
    IntersectionCache,
    IntersectionEntry,
    ThreeLevelCacheManager,
)
from repro.core.manager import CacheManager, QueryOutcome, build_hierarchy_for

__all__ = [
    "CacheConfig",
    "Policy",
    "Scheme",
    "CachedList",
    "CachedResult",
    "EntryState",
    "ResultBlock",
    "LruList",
    "SelectionPolicy",
    "efficiency_value",
    "ssd_cache_blocks",
    "CacheStats",
    "Situation",
    "WriteBuffer",
    "BlockRegion",
    "ByteRegion",
    "CacheManager",
    "QueryOutcome",
    "build_hierarchy_for",
    "IntersectionCache",
    "IntersectionEntry",
    "ThreeLevelCacheManager",
    "AdmitEvent",
    "EvictEvent",
    "FlushEvent",
    "L2VictimEvent",
    "CacheEvents",
    "EventCounter",
    "Replacement",
    "ResultCache",
    "ListCache",
]
