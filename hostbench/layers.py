"""Isolated harnesses: each layer's own cost on workload-shaped input.

These are the *envelope*: what a layer costs when nothing else runs,
fed with the arguments the traced pass recorded (the SSD and HDD call
streams, the lists the queries demanded, the cache sizes the pass ended
with) rather than with synthetic shapes.  Where end-to-end sits inside
the envelope is read by putting these next to the in-situ span numbers.

Every harness returns ``(metrics, failures)``: a dict of per-layer
metric values, and one line per output that did not check (codec
round-trips, replayed erase counts).  All times are host time.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace

import numpy as np

from repro._hot import HOT
from repro.core.lru import LruList
from repro.core.manager import build_hierarchy_for
from repro.engine.codec import decode_posting_list, encode_posting_list
from repro.engine.daat import DaatQueryProcessor
from repro.engine.index import InvertedIndex
from repro.engine.postings import generate_posting_list
from repro.obs import AuditLog, FlightRecorder, Histogram, Telemetry, Tracer
from repro.sim.clock import VirtualClock
from repro.sim.kernel import Kernel

from hostbench import measure, trace
from hostbench import workloads as wl

__all__ = ["lru_harness", "victim_scan_harness", "demanded_terms",
           "codec_harness",
           "daat_harness", "flash_replay", "hdd_replay", "kernel_harness",
           "obs_harness", "reference_topk", "verify_results"]

perf = time.perf_counter_ns


# -- core --------------------------------------------------------------------

def lru_harness(entries: int, ops: int) -> dict:
    """``LruList`` touch and insert+evict at ``entries`` resident keys."""
    entries = max(8, entries)
    lru: LruList = LruList(5)
    for k in range(entries):
        lru.insert(k, k)
    rng = random.Random(0)
    keys = [rng.randrange(entries) for _ in range(ops)]
    touch = lru.touch
    t0 = perf()
    for k in keys:
        touch(k)
    touch_ns = (perf() - t0) / ops
    insert, pop_lru = lru.insert, lru.pop_lru
    t0 = perf()
    for k in range(entries, entries + ops):
        insert(k, k)
        pop_lru()
    evict_ns = (perf() - t0) / ops
    return {"core.lru.touch_ns": touch_ns,
            "core.lru.insert_evict_ns": evict_ns}


def victim_scan_harness(manager, ops: int) -> dict:
    """``pick_l1_list_victim`` (Formula 1/2 over the replace-first
    region) on the memory list cache exactly as the pass left it."""
    pick = manager.policy.pick_l1_list_victim
    lists, config = manager.l1_lists, manager.config
    t0 = perf()
    for _ in range(ops):
        pick(lists, None, config)
    return {"core.policy.l1_victim_scan_us": (perf() - t0) / ops / 1000.0}


# -- engine ------------------------------------------------------------------

def demanded_terms(plans, budget_postings: int, index) -> list[int]:
    """Distinct term ids in plan order, up to a total list length."""
    seen: dict[int, None] = {}
    total = 0
    for plan in plans:
        for demand in plan.demands:
            if demand.term_id in seen:
                continue
            seen[demand.term_id] = None
            total += int(index.stats.doc_freqs[demand.term_id])
            if total >= budget_postings:
                return list(seen)
    return list(seen)


def codec_harness(index: InvertedIndex, terms: list[int]) -> tuple[dict, list]:
    """Generate, varbyte-encode and decode the lists the workload
    demanded; every list must round-trip exactly."""
    failures: list[str] = []
    gen_ns = enc_ns = dec_ns = 0
    postings = nbytes = 0
    num_docs, seed = index.num_docs, index.stats.config.seed
    for term in terms:
        df = int(index.stats.doc_freqs[term])
        t0 = perf()
        plist = generate_posting_list(term, df, num_docs, seed=seed)
        t1 = perf()
        data = encode_posting_list(plist)
        t2 = perf()
        back = decode_posting_list(data)
        t3 = perf()
        gen_ns += t1 - t0
        enc_ns += t2 - t1
        dec_ns += t3 - t2
        postings += len(plist)
        nbytes += len(data)
        if not (back.term_id == plist.term_id
                and np.array_equal(back.doc_ids, plist.doc_ids)
                and np.array_equal(back.tfs, plist.tfs)):
            failures.append(f"codec round-trip differs for term {term}")
    n = max(1, postings)
    return {"engine.postings.generate_ns_per_posting": gen_ns / n,
            "engine.codec.encode_ns_per_posting": enc_ns / n,
            "engine.codec.decode_ns_per_posting": dec_ns / n,
            "engine.codec.bytes_per_posting": nbytes / n}, failures


def daat_harness(index: InvertedIndex, queries: list, seed: int) -> dict:
    """Document-at-a-time scoring of the first multi-term queries."""
    daat = DaatQueryProcessor(index, seed=seed)
    for query in queries:  # generating the lists is not DAAT's cost
        for term in query.key:
            index.postings(term)
    steps0 = HOT.daat_advance_steps
    t0 = perf()
    for query in queries:
        daat.execute(daat.plan(query), materialize=True)
    dt = perf() - t0
    steps = HOT.daat_advance_steps - steps0
    return {"engine.daat.ns_per_advance": dt / steps if steps else 0.0}


def reference_topk(index: InvertedIndex, plan, top_k: int):
    """Naive numpy tf-idf over the same ``index.postings`` prefixes:
    (doc ids, scores), best first, ties to the smaller doc id."""
    docs, scores = [], []
    for demand in plan.demands:
        plist = index.postings(demand.term_id)
        n = min(demand.postings, len(plist))
        docs.append(plist.doc_ids[:n])
        scores.append(np.sqrt(plist.tfs[:n].astype(np.float64))
                      * index.idf(demand.term_id))
    uniq, inverse = np.unique(np.concatenate(docs), return_inverse=True)
    total = np.zeros(uniq.size)
    np.add.at(total, inverse, np.concatenate(scores))
    order = np.lexsort((uniq, -total))[:top_k]
    return uniq[order], total[order]


def verify_results(index: InvertedIndex, executed: list, every: int = 5) -> list:
    """Compare every ``every``-th executed query with the reference."""
    failures = []
    for i, (plan, entry) in enumerate(executed[::every]):
        docs, scores = reference_topk(index, plan, entry.top_k)
        got_docs = [r.doc_id for r in entry.results]
        got_scores = [r.score for r in entry.results]
        if got_docs != docs.tolist() or not np.allclose(
                got_scores, scores, rtol=0.0, atol=1e-9):
            failures.append(
                f"result of executed query #{i * every} "
                f"{plan.query.key} differs from the numpy reference")
    return failures


# -- flash / hdd -------------------------------------------------------------

def flash_replay(prefix: str, manager, ops: list, mark: int,
                 in_situ_erases: int) -> tuple[dict, list]:
    """Replay a recorded ``SimulatedSSD`` call stream on a fresh device.

    Calls before ``mark`` rebuild the device state untimed; each call
    after it is timed on its own.  The simulated clock is moved to each
    call's recorded time first, so age-based decisions see what they saw
    in situ, and the replayed erase count must equal the in-situ one.
    """
    ssd = build_hierarchy_for(manager.config, manager.index).ssd
    clock = ssd.clock
    fns = (ssd.read, ssd.write, ssd.trim)
    for op, lba, nbytes, now_us in ops[:mark]:
        if now_us > clock.now_us:
            clock.advance_to(now_us)
        fns[op](lba, nbytes)
    pages0 = (ssd.counters.count("read_pages"),
              ssd.counters.count("write_pages"), ssd.ftl.stats.trimmed_pages)
    erases0 = erases = ssd.erase_count
    ns = [0, 0, 0]
    gc_ns = 0
    for op, lba, nbytes, now_us in ops[mark:]:
        if now_us > clock.now_us:
            clock.advance_to(now_us)
        t0 = perf()
        fns[op](lba, nbytes)
        dt = perf() - t0
        ns[op] += dt
        if op == trace.SSD_WRITE:
            now_erases = ssd.erase_count
            if now_erases != erases:  # this write paid for a GC
                gc_ns += dt
                erases = now_erases
    pages = (ssd.counters.count("read_pages") - pages0[0],
             ssd.counters.count("write_pages") - pages0[1],
             ssd.ftl.stats.trimmed_pages - pages0[2])
    replayed = erases - erases0
    failures = []
    if replayed != in_situ_erases:
        failures.append(f"{prefix}: replay erased {replayed} blocks, "
                        f"in situ {in_situ_erases}")
    out = {f"{prefix}.{name}_ns_per_page": ns[op] / pages[op] if pages[op] else 0.0
           for op, name in enumerate(("read", "write", "trim"))}
    out[f"{prefix}.gc_us_per_erase"] = (gc_ns / replayed / 1000.0
                                        if replayed else 0.0)
    return out, failures


def hdd_replay(manager, reads: list) -> dict:
    """Replay the recorded index-store reads on a fresh disk."""
    hdd = build_hierarchy_for(manager.config, manager.index).index_store
    read = hdd.read
    t0 = perf()
    for lba, nbytes in reads:
        read(lba, nbytes)
    dt = perf() - t0
    return {"hdd.disk.read_ns_per_call": dt / len(reads) if reads else 0.0}


# -- kernel ------------------------------------------------------------------

def kernel_harness(serves: int, events: int, spawns: int) -> dict:
    """The kernel's three primitives, uncontended."""
    kernel = Kernel(VirtualClock())

    def one_task():
        serve = kernel.serve
        for _ in range(serves):
            serve("dev", 1.0)

    kernel.spawn(one_task)
    t0 = perf()
    kernel.run()
    yield_us = (perf() - t0) / serves / 1000.0

    kernel = Kernel(VirtualClock())

    def noop():
        return None

    t0 = perf()
    for i in range(events):
        kernel.at(float(i), noop)
    kernel.run()
    event_ns = (perf() - t0) / events

    kernel = Kernel(VirtualClock())

    def parent():
        for _ in range(spawns):
            kernel.spawn(noop).join()

    kernel.spawn(parent)
    t0 = perf()
    kernel.run()
    spawn_us = (perf() - t0) / spawns / 1000.0
    return {"sim.kernel.yield_resume_us": yield_us,
            "sim.kernel.event_ns": event_ns,
            "sim.kernel.spawn_join_us": spawn_us}


# -- obs ---------------------------------------------------------------------

def obs_harness(w: wl.Workload, inputs: wl.Inputs, seed: int,
                samples: list[float], ops: int, windows: int) -> dict:
    """The telemetry stack's own primitives.

    ``record_query`` / span / audit / histogram run on fresh
    instruments; window close and the flight recorder's window callback
    run on a stack armed like the armed pass and warmed with real
    queries, so the registry holds the instruments a real run has.  The
    flight recorder's share is read off two stamp callbacks registered
    either side of it.
    """
    out = {}
    clock = VirtualClock()
    tel = Telemetry()
    tel.attach_timeline(window_us=1e15)  # never closes: record_query alone
    tel.bind_clock(clock)
    spent = 0
    for i in range(ops):
        clock.consume("dram", 1.0)
        clock.consume("ssd-cache", 30.0)
        t0 = perf()
        busy0 = tel.busy_snapshot(clock)
        tel.record_query("S3", 40.0, busy0, clock, qid=i, span_id=i)
        spent += perf() - t0
    out["obs.telemetry.record_query_us"] = spent / ops / 1000.0

    tracer = Tracer(clock)
    t0 = perf()
    for i in range(ops):
        with tracer.span("query", qid=i) as span:
            span.set(hit_level=1)
    out["obs.tracer.span_ns"] = (perf() - t0) / ops

    audit = AuditLog(clock=clock)
    t0 = perf()
    for i in range(ops):
        audit.record("list.select", "list", i, si_bytes=131072, pu=0.5,
                     freq=3, sc_blocks=1, ev=3.0, tev=0.5, admit=True,
                     branch="admit")
    out["obs.audit.record_ns"] = (perf() - t0) / ops

    hist = Histogram()
    values = (samples or [1.0]) * (ops // max(1, len(samples)) + 1)
    record = hist.record
    t0 = perf()
    for v in values[:ops]:
        record(v)
    out["obs.histogram.record_ns"] = (perf() - t0) / ops

    stamps: list[int] = []
    tel = Telemetry()
    timeline = tel.attach_timeline(window_us=measure.WINDOW_US)
    timeline.add_window_callback(lambda rec: stamps.append(perf()))
    FlightRecorder(tel, out_dir=None).arm()
    timeline.add_window_callback(lambda rec: stamps.append(perf()))
    small = replace(w, warm=min(w.warm, 300), measured=windows)
    manager = wl.build_manager(small, inputs, seed, telemetry=tel)
    close_ns = flight_ns = 0
    for query in inputs.queries[small.warm:small.warm + windows]:
        manager.process_query(query)
        del stamps[:]  # closes inside process_query are not the timed ones
        manager.clock.advance(measure.WINDOW_US)
        t0 = perf()
        timeline.tick()
        close_ns += perf() - t0
        flight_ns += stamps[1] - stamps[0]
    out["obs.timeline.window_close_us"] = close_ns / windows / 1000.0
    out["obs.flight.window_callback_us"] = flight_ns / windows / 1000.0
    return out
