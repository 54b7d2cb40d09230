"""Exact call-count pins for what armed telemetry adds (noise-free).

The companion of ``test_miss_chain_callcount.py``: that one counts the
Python calls the simulator makes for a fixed window of
``closed_miss``-shaped queries; this one counts what *watching* the same
window adds.  Two identical stacks (CBLRU, 4 MB memory / 16 MB SSD) are
warmed with 1 000 queries and then serve the same 500 under
``sys.setprofile`` — one with ``telemetry=None``, one armed the way
hostbench arms it (``Telemetry()`` spans + audit, a 100 ms timeline, the
flight recorder in counting mode).  The difference in ``call`` events
whose code lives in ``repro/`` is the observer's own work.

Before the append-now/render-at-the-reader pass the armed run added
94 639 calls over the window (189.3/query) on Python 3.11 — Python
frames only: cProfile's 465/query also counts C calls and the frames of
generated ``<string>`` code.  That pass brought it to 53 973 (107.9).
Opening the serving path's scoped spans inline, keeping a leaf span in
one frame, binding the bus's emitters at (un)subscribe and gating
exemplar offers brought it to 43 001 (86.0); the ceiling is 82 % of
53 973.  Greedy GC reading its victim off the dead-block index took four
frames per GC out of the unobserved run but only three out of the armed
one (an audited decision still scans, to list its candidates), so the
difference rose to 43 740 (87.5); folding scan, choice and audit record
into one decision frame is what kept it under the ceiling (keeping the
old scan and choose frames on the audited path read 46 696).  The event
mirror appending its audit record in its own frame, with a row built
from the event's fields instead of a ``record(**data)`` call, brought it
to 39 153 (78.3), under a ceiling of 74 % of 53 973.  The caches
counting their own replacement statistics and building events only for
an observed bus took the stats recorder's frame off both runs and the
bus's dispatch frame off the armed one: 34 859 (69.7), under 66 % of
53 973.  Recording a query's samples as appends that the histograms
fold when read (no ``tick`` frame before the open window's right edge,
no frame per stage sample, one batched drain per window close) brought
it to 33 360 (66.7); the ceiling is now 62 % of 53 973.  The armed
stack must also land on the same simulated outcome as the unobserved
one (observe, never perturb).

The second test prices one armed result hit exactly, frame by frame.
"""

from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig, build_corpus_stats
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.engine.query import Query
from repro.obs import FlightRecorder, Telemetry
from repro.workloads.sweep import make_log_for
from tests.test_miss_chain_callcount import _count_repro_calls

KB = 1024
MB = 1024 * KB
WARM, COUNTED = 1000, 500

#: Extra calls of the armed pass at the parent commit (Python 3.11).
PARENT_EXTRA_CALLS = 53_973
EXTRA_CALL_CEILING = PARENT_EXTRA_CALLS * 62 // 100


def _armed_telemetry(window_us: float = 100_000.0) -> Telemetry:
    tel = Telemetry()
    tel.attach_timeline(window_us=window_us)
    FlightRecorder(tel, out_dir=None).arm()
    return tel


def _window_calls(stats, queries, telemetry):
    config = CacheConfig.paper_split(4 * MB, 16 * MB, policy=Policy.CBLRU)
    index = InvertedIndex(stats)
    manager = CacheManager(
        config, build_hierarchy_for(config, index), index,
        QueryProcessor(index, top_k=config.top_k, seed=7),
        telemetry=telemetry)
    for query in queries[:WARM]:
        manager.process_query(query)

    def window():
        for query in queries[WARM:]:
            manager.process_query(query)

    return _count_repro_calls(window), manager


def test_armed_pass_extra_calls_are_pinned():
    stats = build_corpus_stats(CorpusConfig.paper_scale(200_000, seed=42))
    queries = list(make_log_for(WARM + COUNTED, seed=7))
    off_calls, off = _window_calls(stats, queries, None)
    tel = _armed_telemetry()
    armed_calls, armed = _window_calls(stats, queries, tel)

    # Watching changed nothing ...
    assert armed.stats == off.stats
    assert armed.clock.now_us == off.clock.now_us
    assert armed.ssd.erase_count == off.ssd.erase_count
    # ... the observers really were on ...
    assert len(tel.tracer.spans) > COUNTED
    assert len(tel.audit) > COUNTED
    assert tel.timeline.emitted > 0
    hooks = armed.events
    assert hooks.observed and not off.events.observed
    for name in ("admit", "evict", "flush", "l2_victim"):
        assert getattr(hooks, name) == getattr(hooks.observer, "on_" + name), (
            f"{name}: one fused observer")
    # ... and cost a bounded number of frames.
    extra = armed_calls - off_calls
    assert extra <= EXTRA_CALL_CEILING, (
        f"{extra} extra Python calls inside repro/ for {COUNTED} armed "
        f"steady-state queries ({extra / COUNTED:.1f}/query); ceiling "
        f"{EXTRA_CALL_CEILING} = 62 % of the parent's {PARENT_EXTRA_CALLS}"
    )


def _hit_stack(telemetry):
    """``test_hit_path_callcount``'s hand-built stack, primed so that both
    devices, every histogram and every counter a hit touches exist."""
    index = InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=80, seed=13))
    config = CacheConfig(mem_result_bytes=40 * KB, mem_list_bytes=512 * KB,
                         ssd_result_bytes=512 * KB, ssd_list_bytes=4 * MB,
                         policy=Policy.CBLRU)
    manager = CacheManager(config, build_hierarchy_for(config, index), index,
                           telemetry=telemetry)
    k = [Query(query_id=i, terms=(3 + i,)) for i in range(9)]
    for query in k + [k[8], k[0], k[1], k[8]]:
        manager.process_query(query)
    return manager, k


def test_an_armed_hit_pays_one_frame_per_span():
    """Armed − unobserved frames of one hit = one per span (the query,
    its ``result.lookup`` and the device read) + two per cache event
    (the metrics observer, bound as the emitter itself, and
    ``AuditLog.on_*``, which appends its record itself; the unobserved
    run builds no event at all) + two for the query record
    (``record_query`` and the gated ``query_latency_us`` histogram's
    ``record``: a stage sample is a frameless append, and the timeline
    ticks only once the clock passes the open window's right edge).
    """
    off, k = _hit_stack(None)
    # A window that never closes: what is priced is the per-query path.
    armed, _ = _hit_stack(_armed_telemetry(window_us=1e15))
    spans, record = 3, 2
    # k2 back from SSD: its L1 victim's evict, the victim's REPLACEABLE
    # SSD copy re-validated (an L2 admit) and k2's own L1 admit.  Then k8
    # from memory: no event.
    for query, level, events in ((k[2], 2, 3), (k[8], 1, 0)):
        out = []
        calls = []
        for manager in (off, armed):
            calls.append(_count_repro_calls(
                lambda m=manager: out.append(m.process_query(query))))
        assert out[0] == out[1] and out[0].result_hit_level == level
        assert calls[1] - calls[0] == spans + 2 * events + record, calls
