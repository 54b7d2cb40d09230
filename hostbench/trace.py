"""Outside-in tracing: host-time spans around calls into each layer.

Nothing under ``src/`` is edited.  :func:`installed` replaces, at class
level and before any object is built, the public functions where one
layer calls into the next with a wrapper that records one span per
call: name, layer, thread, start, end (``perf_counter_ns``), the span
that caused it and the id of the query being served.  Spans are kept in
memory and written (JSONL) when the run ends.

Self time is a span's duration minus the durations of its children *on
the same thread*.  Under the kernel every query runs on its own OS
thread with strict handoff, so a task's first span names the root as
its cause without subtracting from it, and ``sim.kernel.serve`` is an
ordinary child span on the task's own stack that holds the time the
task spent blocked.  Exactly one thread runs at any instant, so the
kernel layer's own host time is what is left of the root's duration
once every non-kernel span's self time is taken out (:func:`layer_self_ns`).

The wrappers cost host time of their own.  :func:`calibrate_overhead`
measures it on a no-op boundary, split into the part that lands inside
the span (between the two clock reads) and the part that lands in the
parent; :func:`self_times` subtracts both.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict

from repro.core.list_cache import ListCache
from repro.core.manager import CacheManager
from repro.core.result_cache import ResultCache
from repro.engine.index import InvertedIndex
from repro.engine.processor import QueryProcessor
from repro.flash.ssd import SimulatedSSD
from repro.hdd.disk import SimulatedHDD
from repro.sim.kernel import AdmissionControl, Kernel
from repro.storage.device import DramModel

__all__ = ["BOUNDARIES", "ROOT", "KERNEL_LAYER", "Recorder", "installed",
           "calibrate_overhead", "self_times", "layer_self_ns",
           "write_jsonl"]

ROOT = "workloads.serve"
KERNEL_LAYER = "sim.kernel"

#: (class, method, span name).  A span's layer is its name minus the
#: last dotted part, i.e. the module it calls into.
BOUNDARIES = (
    (CacheManager, "process_query", "core.manager.process_query"),
    (ResultCache, "lookup", "core.result_cache.lookup"),
    (ResultCache, "admit_l1", "core.result_cache.admit_l1"),
    (ResultCache, "maybe_refresh_static",
     "core.result_cache.maybe_refresh_static"),
    (ListCache, "fetch", "core.list_cache.fetch"),
    (QueryProcessor, "plan", "engine.processor.plan"),
    (QueryProcessor, "execute", "engine.processor.execute"),
    (InvertedIndex, "postings", "engine.index.postings"),
    (SimulatedSSD, "read", "flash.ssd.read"),
    (SimulatedSSD, "write", "flash.ssd.write"),
    (SimulatedSSD, "trim", "flash.ssd.trim"),
    (SimulatedHDD, "read", "hdd.disk.read"),
    (DramModel, "read", "storage.dram.read"),
    (DramModel, "write", "storage.dram.write"),
    (Kernel, "run", "sim.kernel.run"),
    (Kernel, "serve", "sim.kernel.serve"),
    (AdmissionControl, "submit", "sim.kernel.submit"),
)

NAMES = (ROOT,) + tuple(name for _, _, name in BOUNDARIES)


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Recorder:
    """Spans and recorded call arguments of one traced stack.

    Arguments the isolated harnesses replay (the SSD and HDD call
    streams, query plans, executed results) are recorded from the moment
    the stack is built, because a replay has to rebuild device state
    from the first write; spans are recorded only while :attr:`on`.
    """

    def __init__(self) -> None:
        #: (span id, parent id, name index, thread, start ns, end ns, qid)
        self.spans: list[tuple] = []
        self.on = False
        self.root_id = 0
        #: (op, lba, nbytes, simulated now) per SimulatedSSD call
        self.ssd_ops: list[tuple] = []
        #: index into :attr:`ssd_ops` where the measured call began
        self.ssd_mark = 0
        #: (lba, nbytes) per SimulatedHDD.read inside the measured call
        self.hdd_reads: list[tuple] = []
        #: QueryPlan per planned query inside the measured call
        self.plans: list = []
        #: (QueryPlan, ResultEntry) per executed query, measured call
        self.executed: list[tuple] = []
        self._ids = itertools.count(1)
        self._qids = itertools.count(0)
        self._local = threading.local()
        self._root_t0 = 0

    def begin_root(self) -> None:
        """Open the root span on the calling thread and start recording."""
        self.ssd_mark = len(self.ssd_ops)
        self.root_id = next(self._ids)
        self._local.stack = [self.root_id]
        self._local.qid = -1
        self.on = True
        self._root_t0 = time.perf_counter_ns()

    def end_root(self) -> None:
        t1 = time.perf_counter_ns()
        self.on = False
        self._local.stack = []
        self.spans.append((self.root_id, 0, 0, threading.get_ident(),
                           self._root_t0, t1, -1))


def _wrap(rec: Recorder, fn, name_idx: int, pre=None, post=None,
          is_query: bool = False):
    perf = time.perf_counter_ns
    local = rec._local
    spans = rec.spans
    ids = rec._ids
    qids = rec._qids
    get_ident = threading.get_ident

    def boundary(*args, **kwargs):
        if pre is not None:
            pre(rec, args)
        if not rec.on:
            return fn(*args, **kwargs)
        try:
            stack = local.stack
        except AttributeError:  # first span on a kernel task thread
            stack = local.stack = []
            local.qid = -1
        if is_query:
            local.qid = next(qids)
        sid = next(ids)
        parent = stack[-1] if stack else rec.root_id
        stack.append(sid)
        t0 = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf()
            stack.pop()
            spans.append((sid, parent, name_idx, get_ident(), t0, t1,
                          local.qid))
        if post is not None:
            post(rec, args, result)
        if is_query:
            local.qid = -1
        return result

    boundary.__wrapped__ = fn
    return boundary


def _record_ssd(op: int):
    def pre(rec, args):
        ssd = args[0]
        rec.ssd_ops.append((op, args[1], args[2], ssd.clock.now_us))
    return pre


def _record_hdd(rec, args):
    if rec.on:
        rec.hdd_reads.append((args[1], args[2]))


def _record_plan(rec, args, plan):
    rec.plans.append(plan)


def _record_executed(rec, args, entry):
    rec.executed.append((args[1], entry))


SSD_READ, SSD_WRITE, SSD_TRIM = 0, 1, 2

_HOOKS = {
    "flash.ssd.read": {"pre": _record_ssd(SSD_READ)},
    "flash.ssd.write": {"pre": _record_ssd(SSD_WRITE)},
    "flash.ssd.trim": {"pre": _record_ssd(SSD_TRIM)},
    "hdd.disk.read": {"pre": _record_hdd},
    "engine.processor.plan": {"post": _record_plan},
    "engine.processor.execute": {"post": _record_executed},
    "core.manager.process_query": {"is_query": True},
}

@contextlib.contextmanager
def installed(rec: Recorder):
    """Patch every boundary for ``rec`` while the block runs.  Objects
    built inside the block are traced; the classes are restored on exit
    whatever happens."""
    originals = [(cls, attr, cls.__dict__[attr]) for cls, attr, _ in BOUNDARIES]
    try:
        for cls, attr, name in BOUNDARIES:
            setattr(cls, attr, _wrap(rec, cls.__dict__[attr],
                                     NAMES.index(name),
                                     **_HOOKS.get(name, {})))
        yield rec
    finally:
        for cls, attr, original in originals:
            setattr(cls, attr, original)


def calibrate_overhead(calls: int = 20_000) -> tuple[float, float]:
    """Host ns one span adds (inside itself, to its parent).

    Times a no-op through a wrapper and bare, under a root span so the
    wrapper takes its recording path; the recorder is private, so the
    run's own spans are untouched.
    """
    def noop(a, b):
        return None

    rec = Recorder()
    wrapped = _wrap(rec, noop, 1)
    rec.begin_root()
    t0 = time.perf_counter_ns()
    for i in range(calls):
        wrapped(i, i)
    traced_ns = time.perf_counter_ns() - t0
    rec.end_root()
    t0 = time.perf_counter_ns()
    for i in range(calls):
        noop(i, i)
    bare_ns = time.perf_counter_ns() - t0
    inside = sum(s[5] - s[4] for s in rec.spans if s[2] == 1) / calls
    total = max(0.0, (traced_ns - bare_ns) / calls)
    bare = bare_ns / calls
    inner = max(0.0, min(total, inside - bare))
    return inner, total - inner


def self_times(spans: list[tuple], inner_ns: float = 0.0,
               outer_ns: float = 0.0) -> dict[int, float]:
    """Self time per span id: duration minus same-thread children,
    minus the wrapper overhead that landed in it.  Never negative."""
    thread_of = {s[0]: s[3] for s in spans}
    child_ns: dict[int, int] = defaultdict(int)
    child_n: dict[int, int] = defaultdict(int)
    for sid, parent, _, tid, t0, t1, _ in spans:
        if thread_of.get(parent) == tid:
            child_ns[parent] += t1 - t0
            child_n[parent] += 1
    out = {}
    for sid, parent, _, _, t0, t1, _ in spans:
        own = inner_ns if parent else 0.0  # the root has no wrapper
        raw = (t1 - t0) - child_ns[sid] - own - outer_ns * child_n[sid]
        out[sid] = raw if raw > 0.0 else 0.0
    return out


def layer_self_ns(spans: list[tuple], selfs: dict[int, float],
                  inner_ns: float = 0.0, outer_ns: float = 0.0) -> dict:
    """Self time and span count per span name, plus the kernel layer's
    own time by subtraction (see the module docstring).

    Returns ``{"self_ns": {name: ns}, "count": {name: n},
    "kernel_ns": ns, "root_ns": ns}``; ``root_ns`` is the root's
    duration less every wrapper's overhead, so on a closed loop the
    non-kernel self times add up to it and ``kernel_ns`` is 0.
    """
    self_ns: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    root_raw = 0
    for sid, parent, name_idx, _, t0, t1, _ in spans:
        name = NAMES[name_idx]
        self_ns[name] += selfs[sid]
        count[name] += 1
        if not parent:
            root_raw = t1 - t0
    root_ns = max(0.0, root_raw - (len(spans) - 1) * (inner_ns + outer_ns))
    kernel_ns = 0.0
    if any(layer_of(name) == KERNEL_LAYER for name in count):
        kernel_ns = max(0.0, root_ns - sum(
            ns for name, ns in self_ns.items()
            if layer_of(name) != KERNEL_LAYER))
    return {"self_ns": dict(self_ns), "count": dict(count),
            "kernel_ns": kernel_ns, "root_ns": root_ns}


def write_jsonl(spans: list[tuple], path: str) -> int:
    """One JSON object per span, in completion order."""
    selfs = self_times(spans)
    with open(path, "w") as fh:
        for sid, parent, name_idx, tid, t0, t1, qid in spans:
            name = NAMES[name_idx]
            fh.write(json.dumps({
                "span": sid, "parent": parent or None, "name": name,
                "layer": layer_of(name), "thread": tid, "start_ns": t0,
                "end_ns": t1, "self_ns": selfs[sid],
                "qid": qid if qid >= 0 else None,
            }) + "\n")
    return len(spans)
