"""Exact frame-count pin for the kernel serving path (noise-free).

Timing on a shared box is good to 5-15 %; the number of Python frames the
simulator enters for a fixed stream of queries repeats exactly.  The same
seeded ``closed_miss``-shaped stack (CBLRU, 4 MB memory / 16 MB SSD, 1 000
warm-up queries) serves the same 500 queries twice — through
``run_open_loop`` (Poisson 20 q/s, one in flight: hostbench's
``open_kernel``) and through ``run_cached`` — under ``sys.setprofile`` +
``threading.setprofile``, counting the ``call`` events whose code lives in
``repro/`` on every thread.

At one query in flight the kernel adds no simulated behaviour, so what it
adds in frames is pure overhead, and two things are pinned:

* kernel path - closed path <= 60 frames per query.  The commit before
  the uncontended ``serve`` completed inline read 200.1 here (about 28
  frames for each of ~6.6 device accesses per query); this one reads 35.6
  (spawn, admission and the arrival event per query, one frame per
  elided serve, the full round trip for the few that are contended).
* at least 90 % of the run's serves were completed inline, counted with
  no new counter: events handled minus heap entries pushed, against the
  resources' summed ``served``.
"""

import os
import sys
import threading

from repro._hot import HOT
from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig, build_corpus_stats
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.sim.kernel import Kernel
from repro.workloads.openloop import PoissonArrivals, run_open_loop
from repro.workloads.retrieval import run_cached
from repro.workloads.sweep import make_log_for

MB = 1024 * 1024
WARM, COUNTED, SEED = 1000, 500, 7

#: Frames per query the kernel path may cost over the closed loop.
EXTRA_FRAMES_CEILING = 60.0
ELIDED_SHARE_FLOOR = 0.90


def _count_repro_calls(fn) -> int:
    """``call`` events inside ``repro/`` while ``fn`` runs, on this thread
    and on every thread started meanwhile (the kernel's workers)."""
    marker = os.sep + "repro" + os.sep
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls  # one thread runs at a time: the baton is the lock
        if event == "call" and marker in frame.f_code.co_filename:
            calls += 1

    previous = sys.getprofile()
    threading.setprofile(profiler)
    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(previous)
        threading.setprofile(None)
    return calls


def _warm_stack(stats, queries) -> CacheManager:
    config = CacheConfig.paper_split(4 * MB, 16 * MB, policy=Policy.CBLRU)
    index = InvertedIndex(stats)
    manager = CacheManager(
        config, build_hierarchy_for(config, index), index,
        QueryProcessor(index, top_k=config.top_k, seed=SEED))
    for query in queries[:WARM]:
        manager.process_query(query)
    manager.stats.reset()
    return manager


def test_kernel_path_costs_few_frames_more_than_the_closed_loop():
    stats = build_corpus_stats(CorpusConfig.paper_scale(200_000, seed=42))
    queries = list(make_log_for(WARM + COUNTED, seed=SEED))
    tail = queries[WARM:]

    closed = _warm_stack(stats, queries)
    closed_calls = _count_repro_calls(lambda: run_cached(
        closed.index, tail, closed.config, seed=SEED, manager=closed))

    opened = _warm_stack(stats, queries)
    kernel = Kernel(opened.clock)
    pops = HOT.kernel_heap_pops
    try:
        open_calls = _count_repro_calls(lambda: run_open_loop(
            opened, tail, PoissonArrivals(20.0, seed=SEED), concurrency=1,
            max_queue=32, kernel=kernel))
    finally:
        opened.clock.bind_kernel(None)
    handled = HOT.kernel_heap_pops - pops

    # One in flight: the same decisions either way ...
    assert opened.stats.queries == closed.stats.queries == COUNTED
    assert opened.stats.situation_counts == closed.stats.situation_counts
    assert opened.ssd.erase_count == closed.ssd.erase_count
    assert opened.clock.busy_snapshot() == closed.clock.busy_snapshot()

    # ... and nearly all of them without a round trip through the heap.
    served = sum(r.served for r in kernel.resources())
    elided = handled - kernel._seq
    assert served > 4 * COUNTED
    assert elided >= ELIDED_SHARE_FLOOR * served, (
        f"{elided} of {served} serves completed inline "
        f"({elided / served:.1%}); floor {ELIDED_SHARE_FLOOR:.0%}")

    extra = (open_calls - closed_calls) / COUNTED
    assert extra <= EXTRA_FRAMES_CEILING, (
        f"kernel path {open_calls / COUNTED:.1f} frames/query, closed "
        f"{closed_calls / COUNTED:.1f}: {extra:.1f} extra, ceiling "
        f"{EXTRA_FRAMES_CEILING}")
