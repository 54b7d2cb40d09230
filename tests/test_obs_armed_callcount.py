"""Exact call-count pin for what armed telemetry adds (noise-free).

The companion of ``test_miss_chain_callcount.py``: that one counts the
Python calls the simulator makes for a fixed window of
``closed_miss``-shaped queries; this one counts what *watching* the same
window adds.  Two identical stacks (CBLRU, 4 MB memory / 16 MB SSD) are
warmed with 1 000 queries and then serve the same 500 under
``sys.setprofile`` — one with ``telemetry=None``, one armed the way
hostbench arms it (``Telemetry()`` spans + audit, a 100 ms timeline, the
flight recorder in counting mode).  The difference in ``call`` events
whose code lives in ``repro/`` is the observer's own work.

The commit before the append-now/render-at-the-reader pass added
94 639 calls over the window (189.3/query) on Python 3.11 — Python
frames only: cProfile's 465/query also counts C calls and the frames of
generated ``<string>`` code — and the ceiling is 60 % of that.  The armed
stack must also land on the same simulated outcome as the unobserved one
(observe, never perturb).
"""

from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig, build_corpus_stats
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.obs import FlightRecorder, Telemetry
from repro.workloads.sweep import make_log_for
from tests.test_miss_chain_callcount import _count_repro_calls

MB = 1024 * 1024
WARM, COUNTED = 1000, 500

#: Extra calls of the armed pass at the parent commit (Python 3.11).
PARENT_EXTRA_CALLS = 94_639
EXTRA_CALL_CEILING = PARENT_EXTRA_CALLS * 60 // 100


def _armed_telemetry() -> Telemetry:
    tel = Telemetry()
    tel.attach_timeline(window_us=100_000.0)
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
    assert tel.tracer.span_count > COUNTED
    assert len(tel.audit) > COUNTED
    assert tel.timeline.emitted > 0
    hooks = armed.events
    for name in ("_on_admit", "_on_evict", "_on_flush", "_on_l2_victim"):
        assert len(getattr(hooks, name)) <= 2, (
            f"{name}: the stats recorder plus one fused observer")
    # ... and cost a bounded number of frames.
    extra = armed_calls - off_calls
    assert extra <= EXTRA_CALL_CEILING, (
        f"{extra} extra Python calls inside repro/ for {COUNTED} armed "
        f"steady-state queries ({extra / COUNTED:.1f}/query); ceiling "
        f"{EXTRA_CALL_CEILING} = 60 % of the parent's {PARENT_EXTRA_CALLS}"
    )
