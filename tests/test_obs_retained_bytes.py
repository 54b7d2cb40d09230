"""Exact pins of the bytes a retained observer record keeps (tracemalloc).

Each case serves N records through the real writer on a fixed stack and
divides the memory still allocated afterwards by N: the record itself,
its payload, the numbers only it refers to and its slot in the store.
Inputs are built before tracing starts, so only what the writer
allocates and keeps is counted.  The figures repeat exactly for a
Python version (CPython 3.11 below).

| record | parent (B) | rows (B) | packed (B) | fall, rows → packed |
|---|---|---|---|---|
| audit mirror (``on_admit``) | 319.86 | 207.86 | 102.65 | 51 % |
| device leaf span (``dram.read``) | 414.29 | 228.29 | 104.70 | 54 % |
| ``query`` span (an S1 hit) | 363.91 | 259.91 | 160.31 | 38 % |
| blame ``serve`` record | 328.26 | 168.26 | 168.26 | — |

The parent kept every payload as a dict (184 B for one to five keys,
more past that) and formatted each device span's name per access; a row
is the values as one tuple (``40 + 8n`` B) under keys shared by its
shape, and the name is formed once per device.  Packed records then
dropped the per-record envelope: a span was a 7-slot ``Span`` with a
boxed id, start and end, an audit record a 6-tuple with a boxed
sequence number and clock reading, each in a list or deque slot.  Now a
span is one 36 B packed record in a ``bytearray`` (id, parent id, name
code, start and end) plus its row's list slot, and an audit record a
12 B packed record (time, type and kind codes) plus two list slots (the
key and the row); ``seq`` is the position.  Blame records keep their
rows (a ring of its own).

The victim decisions kept their candidates as pair columns:

| record | lists of pairs (B) | pair column (B) | packed (B) |
|---|---|---|---|
| ``gc.victim`` (16-entry head) | 1567.86 | 415.86 | 310.65 |
| ``list.l1-victim`` (5 candidates) | 735.86 | 351.86 | 246.65 |
| ``rb.victim`` (5 candidates) | 607.86 | 319.86 | 214.65 |

Lists of pairs were 16 ``[block, valid]`` lists (72 B each) under a
184 B list, or five ``(term, ev)`` tuples with their boxed EVs (``(rb,
iren)`` tuples for an RB walk) under a list; a pair column is one
``bytes`` object of packed keys then packed values.

The whole-run envelope prices an armed window per query, spans and
audit records together: armed minus unobserved bytes retained over a
window of queries on a warmed stack, traced from before the stack is
built (so a store that grows counts only its growth):

| window | one object per record (B/query) | packed (B/query) | fall |
|---|---|---|---|
| CBSLRU, 1 994 result hits of 2 000 (3.0 spans, 1.3 audit records/query) | 936.63 | 516.79 | 45 % |
| CBLRU, ``closed_miss``'s stack, 308 misses of 500 (8.1 spans, 15.1 audit records/query) | 5967.26 | 3385.59 | 43 % |

Each ceiling is the measured figure + 2 %.
"""

import gc
import tracemalloc

import pytest

import numpy as np

from repro.core.config import CacheConfig, Policy
from repro.core.entries import CachedList, ResultBlock
from repro.core.events import AdmitEvent
from repro.core.lru import LruList
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.core.replacement import Replacement
from repro.engine.corpus import CorpusConfig, build_corpus_stats
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.engine.query import Query
from repro.engine.querylog import QueryLogConfig, generate_query_log
from repro.flash.constants import FlashConfig
from repro.flash.ftl_page import PageMappingFTL
from repro.obs import AuditLog, BlameRecorder, Telemetry, Tracer
from repro.obs.tracer import NULL_TRACER
from repro.sim.clock import VirtualClock
from repro.storage.device import DramModel
from repro.workloads.sweep import QUERY_VOCAB, make_log_for

KB = 1024
MB = 1024 * KB
N = 20_000

#: bytes per record before rows (dict payloads) and, for the victim
#: decisions, before pair columns (lists of pairs), for the record
PARENT = {"audit_admit": 319.86, "device_leaf": 414.29, "query_span": 363.91,
          "blame_serve": 328.26, "gc_victim": 1567.86, "l1_victim": 735.86,
          "rb_victim": 607.86}
#: bytes per record while each span and audit record was one object
OBJECTS = {"audit_admit": 207.86, "device_leaf": 228.29, "query_span": 259.91,
           "blame_serve": 168.26, "gc_victim": 415.86, "l1_victim": 351.86,
           "rb_victim": 319.86}
#: bytes per record now; the ceilings are these + 2 %
MEASURED = {"audit_admit": 102.65, "device_leaf": 104.70, "query_span": 160.31,
            "blame_serve": 168.26, "gc_victim": 310.65, "l1_victim": 246.65,
            "rb_victim": 214.65}

#: armed − unobserved bytes retained per query of a window, one object
#: per record, and now; the ceilings are these + 2 %
ENVELOPE_OBJECTS = {"cbslru_hit": 936.63, "cblru_miss": 5967.26}
ENVELOPE_MEASURED = {"cbslru_hit": 516.79, "cblru_miss": 3385.59}


def _retained(serve) -> int:
    """Bytes still allocated after ``serve()`` that were not before."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        serve()
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _audit_admit() -> float:
    log = AuditLog(clock=VirtualClock())
    events = [AdmitEvent(kind="list", key=i, level="l1", nbytes=4096 + i)
              for i in range(N + 1)]
    log.on_admit(events.pop())  # the shape, the ring's first block

    def serve():
        on_admit = log.on_admit
        for e in events:
            on_admit(e)
    return _retained(serve) / N


def _device_leaf() -> float:
    clock = VirtualClock()
    dram = DramModel(clock=clock)
    dram.tracer = Tracer(clock)
    dram.read(0, 4096)  # counters resolved, the store's first slots

    def serve():
        read = dram.read
        for _ in range(N):
            read(0, 4096)
    return _retained(serve) / N


def _hit_stack(telemetry):
    """An S1 hit served over and over; only its ``query`` span is
    traced (the lookup and device spans are priced separately)."""
    index = InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=80, seed=13))
    config = CacheConfig(mem_result_bytes=40 * KB, mem_list_bytes=512 * KB,
                         ssd_result_bytes=512 * KB, ssd_list_bytes=4 * MB,
                         policy=Policy.CBLRU)
    manager = CacheManager(config, build_hierarchy_for(config, index), index,
                           telemetry=telemetry)
    query = Query(query_id=0, terms=(3,))
    for _ in range(3):
        manager.process_query(query)
    manager.result_cache.tracer = NULL_TRACER
    manager.hierarchy.attach_tracer(None)

    def serve():
        process = manager.process_query
        for _ in range(N):
            process(query)
    return serve


def _query_span() -> float:
    off = _retained(_hit_stack(None))
    armed = _retained(_hit_stack(Telemetry()))
    return (armed - off) / N


class _Task:
    name = "q"


def _blame_serve() -> float:
    rec = BlameRecorder()
    task = _Task()
    rec.on_spawn(task, None, 0.0)
    times = [(float(i), i + 0.25, i + 1.5) for i in range(N + 1)]
    rec.on_serve(task, "ssd", *times.pop())  # the shape, the first block

    def serve():
        on_serve = rec.on_serve
        for t in times:
            on_serve(task, "ssd", *t)
    return _retained(serve) / N


def _gc_victim() -> float:
    """An audited greedy GC decision on ``closed_miss``'s SSD geometry
    (16 MB of cache file, 149 blocks), churned until most blocks are
    candidates: a 16-entry head of block ids and valid-page counts."""
    config = FlashConfig(num_blocks=149, overprovision=0.12)
    ftl = PageMappingFTL(config)
    rng = np.random.default_rng(7)
    for lpn in rng.integers(0, config.logical_pages,
                            size=2 * config.total_pages).tolist():
        ftl.write(lpn)
    ftl.audit = AuditLog(clock=VirtualClock())
    active = ftl._active_block
    ftl._gc_victim(active, "foreground")  # the shape, the first block
    assert len(ftl.audit.records[-1].data["scores"]) == 16

    def serve():
        decide = ftl._gc_victim
        for _ in range(N):
            decide(active, "foreground")
    return _retained(serve) / N


def _l1_victim() -> float:
    """An audited Fig. 12 walk over a full replace-first region: five
    candidate term ids and their EVs."""
    config = CacheConfig(policy=Policy.CBLRU)
    replacement = Replacement(config, AuditLog(clock=VirtualClock()))
    lists = LruList(config.replace_window)
    for term in range(1000, 1010):
        lists.insert(term, CachedList(
            term_id=term, cached_bytes=300_000 + term, total_bytes=600_000,
            pu=0.7, freq=3 + term % 4, mean_needed_bytes=150_000.0 + term))
    replacement.pick_l1_list_victim(lists, None, config)
    assert len(replacement.audit.records[-1].data["candidates"]) == 5

    def serve():
        pick = replacement.pick_l1_list_victim
        for _ in range(N):
            pick(lists, None, config)
    return _retained(serve) / N


def _rb_victim() -> float:
    """An audited Fig. 11 walk over a full replace-first region: five
    RB ids and their IRENs."""
    config = CacheConfig(policy=Policy.CBLRU)
    replacement = Replacement(config, AuditLog(clock=VirtualClock()))
    blocks = LruList(config.replace_window)
    for rb in range(1000, 1010):
        blocks.insert(rb, ResultBlock(rb_id=rb, lba=64 * rb, num_slots=6,
                                      flags=rb * 7 % 64))
    replacement.pick_rb_victim(blocks)
    assert len(replacement.audit.records[-1].data["candidates"]) == 5

    def serve():
        pick = replacement.pick_rb_victim
        for _ in range(N):
            pick(blocks)
    return _retained(serve) / N


CASES = {"audit_admit": _audit_admit, "device_leaf": _device_leaf,
         "query_span": _query_span, "blame_serve": _blame_serve,
         "gc_victim": _gc_victim, "l1_victim": _l1_victim,
         "rb_victim": _rb_victim}


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_retained_per_record_are_pinned(name):
    got = CASES[name]()
    ceiling = MEASURED[name] * 1.02
    assert got <= ceiling, (
        f"{name}: {got:.1f} B retained per record, ceiling {ceiling:.1f} "
        f"(measured {MEASURED[name]}, one object per record "
        f"{OBJECTS[name]}, parent {PARENT[name]})")


def _window_bytes(config, log, warm: int, telemetry) -> tuple[int, list]:
    """Bytes still allocated after serving ``log[warm:]`` on a stack
    warmed with ``log[:warm]``, and the window's hit levels.  Traced from
    before the stack is built: a store that grows in the window counts
    its growth, not its whole new block."""
    gc.collect()
    tracemalloc.start()
    try:
        index = InvertedIndex(_envelope_stats())
        manager = CacheManager(
            config, build_hierarchy_for(config, index), index,
            QueryProcessor(index, top_k=config.top_k, seed=7),
            telemetry=telemetry)
        queries = list(log)
        if config.policy is Policy.CBSLRU:
            manager.warmup_static(log)
        for query in queries[:warm]:
            manager.process_query(query)
        levels = []
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        process = manager.process_query
        for query in queries[warm:]:
            levels.append(process(query).result_hit_level)
        gc.collect()
        return tracemalloc.get_traced_memory()[0] - before, levels
    finally:
        tracemalloc.stop()


_STATS = []


def _envelope_stats():
    if not _STATS:
        _STATS.append(build_corpus_stats(
            CorpusConfig.paper_scale(200_000, seed=42)))
    return _STATS[0]


def _cbslru_hit():
    """``closed_fit``'s shape: 300 distinct queries on CBSLRU with 4 MB
    of memory and 64 MB of SSD, 2 000 queries after 3 000 of warm-up."""
    log = generate_query_log(QueryLogConfig(
        num_queries=5000, distinct_queries=300, singleton_fraction=0.0,
        vocab_size=QUERY_VOCAB, seed=7))
    config = CacheConfig.paper_split(4 * MB, 64 * MB, policy=Policy.CBSLRU)
    return config, log, 3000, lambda levels: levels.count(0) <= 10


def _cblru_miss():
    """``closed_miss``'s shape (``test_obs_armed_callcount``'s window):
    CBLRU with 4 MB of memory and 16 MB of SSD, 500 queries after 1 000
    of warm-up."""
    log = make_log_for(1500, seed=7)
    config = CacheConfig.paper_split(4 * MB, 16 * MB, policy=Policy.CBLRU)
    return config, log, 1000, lambda levels: levels.count(0) >= 250


WINDOWS = {"cbslru_hit": _cbslru_hit, "cblru_miss": _cblru_miss}


@pytest.mark.parametrize("name", sorted(WINDOWS))
def test_bytes_retained_per_armed_query_are_pinned(name):
    config, log, warm, expected = WINDOWS[name]()
    off, levels = _window_bytes(config, log, warm, None)
    armed, armed_levels = _window_bytes(config, log, warm, Telemetry())
    assert armed_levels == levels and expected(levels)
    got = (armed - off) / len(levels)
    ceiling = ENVELOPE_MEASURED[name] * 1.02
    assert got <= ceiling, (
        f"{name}: {got:.1f} B retained per armed query (spans and audit "
        f"records), ceiling {ceiling:.1f} (measured "
        f"{ENVELOPE_MEASURED[name]}, one object per record "
        f"{ENVELOPE_OBJECTS[name]})")
