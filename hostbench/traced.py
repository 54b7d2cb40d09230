"""The traced run: where the host time goes, layer by layer.

End-to-end metrics are measured with tracing off (:mod:`hostbench.e2e`).
This module does the separate traced run: one extra pass under
:mod:`hostbench.trace` (program telemetry off) for in-situ span numbers,
a deterministic Python call count, the isolated harnesses of
:mod:`hostbench.layers` fed with what the traced pass recorded, and then
as many untraced off/armed repeat pairs as the time left allows, so the
traced numbers sit next to untraced ones from the same process.

Layers are module names.  A per-layer metric a workload does not
exercise (no kernel on a closed loop, no postings without execution, a
harness whose input the workload never produced) reports 0: the layer
did no work here.
"""

from __future__ import annotations

import os
import statistics
import sys
import threading
import time
from dataclasses import replace

import repro
from repro.core.config import Policy
from repro.engine.index import InvertedIndex

from hostbench import e2e, layers, measure, trace
from hostbench import workloads as wl

__all__ = ["run_traced", "count_pycalls", "HARNESS_SCALE"]

#: Isolated-harness sizes at full scale; ``--quick`` divides by ten.
HARNESS_SCALE = {
    "lru_ops": 200_000, "victim_ops": 20_000, "obs_ops": 20_000,
    "obs_windows": 100, "kernel_serves": 10_000, "kernel_events": 100_000,
    "kernel_spawns": 2_000, "codec_postings": 1_500_000, "daat_queries": 20,
    "lru_replay_queries": 1_500, "pycall_queries": 1_000,
}


def count_pycalls(w: wl.Workload, inputs: wl.Inputs, seed: int,
                  queries: int) -> float:
    """Python function calls inside the ``repro`` package per query,
    over the first ``queries`` measured queries of a fresh stack.

    Counted with ``sys.settrace``/``threading.settrace`` on 'call'
    events only (no line tracing), and only for code under ``repro/``:
    the count is a property of the program and its input, repeats
    exactly, and is the noise-free companion of ``host_cal_per_query``.
    """
    w = replace(w, measured=queries)
    manager = wl.build_manager(w, inputs, seed)
    package = os.path.dirname(repro.__file__) + os.sep
    ours: dict = {}
    calls = 0

    def on_call(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        mine = ours.get(code)
        if mine is None:
            mine = ours[code] = code.co_filename.startswith(package)
        if mine:
            calls += 1
        return None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        wl.serve(w, manager, inputs, seed)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return calls / queries


def _traced_pass(w, inputs, seed):
    """Build under the patches, serve under the root span."""
    rec = trace.Recorder()
    with trace.installed(rec):
        manager = wl.build_manager(w, inputs, seed)
        result = measure.run_pass(w, inputs, seed, "traced", manager=manager,
                                  recorder=rec)
    return rec, result


def _lru_stream(w, inputs, seed, queries):
    """The same log under ``Policy.LRU``: byte-granular placement makes
    fragmented spans and a GC-heavy device no end-to-end workload has."""
    w = replace(w, measured=queries)
    rec = trace.Recorder()
    with trace.installed(rec):
        manager = wl.build_manager(w, inputs, seed, policy=Policy.LRU)
        rec.ssd_mark = len(rec.ssd_ops)
        base = manager.ssd.erase_count
        wl.serve(w, manager, inputs, seed)
        erases = manager.ssd.erase_count - base
    return rec, manager, erases


def run_traced(w: wl.Workload, seed: int, budget_s: float, scale: int,
               declared: list[str]) -> tuple[e2e.Run, dict, trace.Recorder]:
    """One traced run.  Returns the run (for failure accounting), the
    per-layer metrics under exactly the ``declared`` names, and the
    recorder (for ``--trace-out``)."""
    begin = time.perf_counter()
    size = {k: max(1, v // scale) for k, v in HARNESS_SCALE.items()}
    inputs = wl.make_inputs(w, seed)
    m = dict.fromkeys(declared, 0.0)
    run = e2e.Run()

    inner_ns, outer_ns = trace.calibrate_overhead()
    rec, traced = _traced_pass(w, inputs, seed)
    run.extra.append(traced)
    manager = traced.manager
    n = traced.submitted
    selfs = trace.self_times(rec.spans, inner_ns, outer_ns)
    by_name = trace.layer_self_ns(rec.spans, selfs, inner_ns, outer_ns)
    self_ns, count = by_name["self_ns"], by_name["count"]

    def us_per_query(*names: str) -> float:
        return sum(self_ns.get(name, 0.0) for name in names) / n / 1000.0

    def per_query(name: str) -> float:
        return count.get(name, 0) / n

    # -- in situ: span self times and counts ---------------------------------
    m["workloads.self_us_per_query"] = us_per_query(trace.ROOT)
    m["core.manager.self_us_per_query"] = us_per_query(
        "core.manager.process_query")
    m["core.result_cache.self_us_per_query"] = us_per_query(
        "core.result_cache.lookup", "core.result_cache.admit_l1",
        "core.result_cache.maybe_refresh_static")
    m["core.list_cache.self_us_per_query"] = us_per_query(
        "core.list_cache.fetch")
    m["core.list_cache.fetches_per_query"] = per_query("core.list_cache.fetch")
    m["engine.processor.plan_us_per_query"] = us_per_query(
        "engine.processor.plan")
    m["engine.processor.execute_us_per_query"] = us_per_query(
        "engine.processor.execute")
    m["engine.index.postings_us_per_query"] = us_per_query(
        "engine.index.postings")
    for op in ("read", "write", "trim"):
        m[f"flash.ssd.{op}_us_per_query"] = us_per_query(f"flash.ssd.{op}")
        m[f"flash.ssd.{op}s_per_query"] = per_query(f"flash.ssd.{op}")
    m["hdd.disk.read_us_per_query"] = us_per_query("hdd.disk.read")
    m["hdd.disk.reads_per_query"] = per_query("hdd.disk.read")
    m["storage.dram.us_per_query"] = us_per_query(
        "storage.dram.read", "storage.dram.write")
    m["sim.kernel.overhead_us_per_query"] = by_name["kernel_ns"] / n / 1000.0
    m["sim.kernel.serves_per_query"] = per_query("sim.kernel.serve")
    m["trace.coverage_fraction"] = (
        1.0 - self_ns[trace.ROOT] / by_name["root_ns"]
        if by_name["root_ns"] else 0.0)

    # -- in situ: the program's own counters ---------------------------------
    sim, hot = traced.sim, traced.hot
    lookups = sim["result_l1_hits"] + sim["result_l2_hits"] + sim["result_misses"]
    fetches = (sim["list_l1_hits"] + sim["list_l2_hits"]
               + sim["list_partial_hits"] + sim["list_misses"])
    m["core.result_cache.l1_hit_ratio"] = sim["result_l1_hits"] / max(1, lookups)
    m["core.result_cache.l2_hit_ratio"] = sim["result_l2_hits"] / max(1, lookups)
    m["core.list_cache.l1_hit_ratio"] = sim["list_l1_hits"] / max(1, fetches)
    m["core.list_cache.l2_hit_ratio"] = sim["list_l2_hits"] / max(1, fetches)
    ftl = sim["ftl"]
    programmed = ftl["host_page_writes"] + ftl["gc_page_writes"]
    m["flash.pages_programmed_per_query"] = programmed / n
    m["flash.gc_page_writes_per_query"] = ftl["gc_page_writes"] / n
    m["flash.write_amplification"] = (
        programmed / ftl["host_page_writes"] if ftl["host_page_writes"] else 0.0)
    m["hot.ftl_map_lookups_per_query"] = hot["ftl_map_lookups"] / n
    m["hot.kernel_heap_pops_per_query"] = hot["kernel_heap_pops"] / n
    m["hot.lru_node_moves_per_query"] = hot["lru_node_moves"] / n
    if hot["postings_decoded"]:
        m["engine.taat.score_ns_per_posting"] = (
            self_ns.get("engine.processor.execute", 0.0)
            / hot["postings_decoded"])
    if n >= 1000:
        m["sim.p99_response_ms"] = sim["p99_response_us"] / 1000.0

    # -- outputs checked inside the traced pass ------------------------------
    if w.execute:
        # The harnesses' own index: nothing it generates or keeps can
        # reach a measured stack.
        index = InvertedIndex(inputs.stats, compressed=True)
        run.check_failures += layers.verify_results(index, rec.executed)

    # -- envelope: isolated harnesses on recorded arguments ------------------
    m["host.pycalls_per_query"] = count_pycalls(
        w, inputs, seed, min(size["pycall_queries"], max(1, w.measured // 4)))
    with measure.serving_gc():
        m.update(layers.lru_harness(len(manager.l1_lists), size["lru_ops"]))
        m.update(layers.victim_scan_harness(manager, size["victim_ops"]))
        m.update(layers.obs_harness(w, inputs, seed, traced.responses_us[:4096],
                                    size["obs_ops"], size["obs_windows"]))
        if w.loop == "open":
            m.update(layers.kernel_harness(size["kernel_serves"],
                                           size["kernel_events"],
                                           size["kernel_spawns"]))
        if w.replay:
            m.update(layers.hdd_replay(manager, rec.hdd_reads))
            got, bad = layers.flash_replay(
                "flash.replay.cblru", manager, rec.ssd_ops, rec.ssd_mark,
                sim["ssd_erases"])
            m.update(got)
            run.check_failures += bad
            lru_rec, lru_manager, lru_erases = _lru_stream(
                w, inputs, seed, min(w.measured, size["lru_replay_queries"]))
            got, bad = layers.flash_replay(
                "flash.replay.lru", lru_manager, lru_rec.ssd_ops,
                lru_rec.ssd_mark, lru_erases)
            m.update(got)
            run.check_failures += bad
        if w.execute:
            terms = layers.demanded_terms(rec.plans, size["codec_postings"],
                                          index)
            got, bad = layers.codec_harness(index, terms)
            m.update(got)
            run.check_failures += bad
            tail = inputs.queries[w.warm:w.warm + w.measured]
            multi = [q for q in tail if len(q.key) > 1]
            m.update(layers.daat_harness(index, multi[:size["daat_queries"]],
                                         seed))
    traced.manager = None

    # -- untraced repeat pairs in the time left ------------------------------
    left = budget_s - (time.perf_counter() - begin)
    e2e.run_repeats(w, seed, left, min_repeats=1,
                    closed_pair=w.loop == "open", run=run)
    median = statistics.median
    off_wall = median(r.off.wall_ns for r in run.repeats)
    m["host.wall_us_per_query"] = off_wall / n / 1000.0
    m["host.wall_us_per_query_armed"] = median(
        r.armed.wall_us_per_query for r in run.repeats)
    m["host.calib_ns_per_iter"] = median(
        p.cal_ns_per_iter for r in run.repeats for p in (r.off, r.armed))
    m["host.repeat_iqr_fraction"] = e2e.iqr_fraction(
        [r.off.cal_per_query for r in run.repeats])
    m["obs.tax_fraction"] = median(
        1.0 - r.off.cal_per_query / r.armed.cal_per_query
        for r in run.repeats)
    m["hot.histogram_records_per_query"] = (
        run.repeats[0].armed.hot["histogram_records"] / n)
    m["trace.overhead_fraction"] = traced.cal_per_query / median(
        r.off.cal_per_query for r in run.repeats) - 1.0
    if w.loop == "open":
        m["sim.kernel.path_ratio"] = median(
            r.off.cal_per_query / r.closed.cal_per_query
            for r in run.repeats)
    if w.execute:
        m["engine.codec.inline_share_estimate"] = (
            m["engine.codec.decode_ns_per_posting"]
            * run.repeats[0].off.hot["postings_decoded"] / off_wall)
    return run, m, rec
