"""Per-query critical-path attribution over the concurrency kernel.

The kernel (:mod:`repro.sim.kernel`) advances simulated time only while
every live task is blocked — in a resource queue (``serve``), joined on
a child, or parked behind admission control.  That strict-handoff rule
makes latency attribution *exact*: each task's lifetime is tiled,
gap-free, by its blocked intervals, so end-to-end latency decomposes as

    admission wait + sum(per-resource queue wait) + sum(service time)

with zero residual in exact arithmetic (see :func:`assemble_queries`;
in floats, :attr:`QueryBlame.residual_us` is rounding).  Fan-out joins are
followed recursively: a join window ``[t0, t1]`` is re-attributed to
the *child's* blocked intervals clipped to that window, so a straggler
child's SSD queue shows up by name in the parent query's bill.

Three consumers sit on top of the raw records:

* :func:`blame_profiles` — differential blame: which resource's *wait*
  grew between the median cohort and the tail cohort.
* :func:`capacity_model` — per-resource utilization, a Little's-law
  self-check (depth-time integral ``L`` vs ``lambda * W``; the two are
  computed from independent instrumentation paths, so agreement is a
  self-test, not a tautology), and a knee estimate
  ``knee_qps = completed throughput / bottleneck utilization``.
* ``repro blame DIR`` / ``repro explain DIR --query N`` — the CLI text
  renderings in :func:`format_blame_report` / :func:`format_query_blame`.

Records are ring-buffered (drop-oldest, counted) and optionally
streamed as JSONL with schema ``repro.obs.blame/v1``; recording is
observation-only — simulated metrics are byte-identical with a
recorder attached or not (enforced by tests/test_obs_blame.py).  A
retained record is a :class:`~repro._row.Row` (values under keys shared
by its shape, ``type`` first): ``serve`` records — most of a run's —
and the other fixed-shape kinds are built from the hook's values, a
``task`` record and the end-of-run kinds convert their dict, and
writers render with ``to_dict()``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro._row import SHAPES, shape
from repro.obs._jsonl import JsonlWriter, read_jsonl, write_jsonl

BLAME_SCHEMA = "repro.obs.blame/v1"

#: Pseudo-resource name under which admission-queue wait is billed.
ADMISSION = "admission"
#: Records the ring holds (drop-oldest, counted in ``dropped``).
RING_CAPACITY = 200_000
#: :func:`blame_profiles`' median cohort, as latency percentiles.
MEDIAN_BAND = (25.0, 75.0)
#: :func:`capacity_model`'s Little's-law self-check tolerance (relative).
LITTLE_LAW_TOL = 0.05

_RECORD_FIELDS = {
    "serve": ("task", "resource", "enqueue_us", "start_us", "end_us",
              "wait_us", "service_us"),
    "join": ("task", "child", "start_us", "end_us", "wait_us"),
    "task": ("task", "name", "start_us", "end_us"),
    "job": ("task", "name", "arrival_us", "start_us", "end_us", "wait_us"),
    "shed": ("name", "arrival_us"),
    "resource": ("name", "lanes", "served", "busy_us", "wait_us",
                 "service_us", "depth_area_us", "peak_depth"),
    "footer": ("records", "dropped", "start_us", "end_us"),
}

# The fixed-shape kinds are built as rows from the hook's values; a
# ``task`` record (its tags vary) and the end-of-run kinds convert.
_SERVE, _JOIN, _JOB, _SHED = (shape(("type",) + _RECORD_FIELDS[kind])
                              for kind in ("serve", "join", "job", "shed"))


class BlameRecorder:
    """Structured per-request records from a kernel, ring-buffered.

    Attach with :meth:`attach`; the kernel and admission controller call
    the ``on_*`` hooks (all no-ops on the simulated schedule).  Records
    live in a bounded ring (oldest dropped first, ``dropped`` counts
    losses); the recorder of a ``Telemetry(out_dir=DIR)`` also writes
    each one to ``DIR/blame.jsonl`` as it is emitted.
    Per-resource wait/service aggregates are kept separately so
    :meth:`capacity` and the timeline's ``wait_fraction`` series stay
    exact even when the ring overflows.
    """

    def __init__(self, registry=None) -> None:
        self.records: deque = deque(maxlen=RING_CAPACITY)
        self.dropped = 0
        self.registry = registry
        self.kernel = None
        self.admission = None
        self.start_us: float | None = None
        self.finished = False
        #: name -> [count, wait_us_sum, service_us_sum]; survives ring drops.
        self.totals: dict[str, list] = {}
        self.shed_count = 0
        #: the blame file's :class:`JsonlWriter` when streaming, else None
        self._stream: JsonlWriter | None = None
        self._next_tid = 0
        # id(task) -> meta dict (holds a strong ref to the task so CPython
        # id() reuse cannot alias two tasks to one tid mid-run).
        self._meta: dict[int, dict] = {}
        self._jobs: dict[int, tuple] = {}
        self._counters: dict[str, tuple] = {}

    def __len__(self) -> int:
        return len(self.records)

    # -- wiring ------------------------------------------------------------

    def attach(self, kernel, admission=None) -> "BlameRecorder":
        """Point ``kernel`` (and optionally ``admission``) at this recorder."""
        kernel.blame = self
        self.kernel = kernel
        if admission is not None:
            admission.blame = self
            self.admission = admission
        if self.start_us is None:
            self.start_us = kernel.clock.now_us
        return self

    def _stream_into(self, path) -> None:
        """Write every record to ``path`` as well (header first); called
        by ``Telemetry(out_dir=)`` as it builds the recorder."""
        self._stream = JsonlWriter(path, header={"schema": BLAME_SCHEMA})

    # -- hot-path hooks (called by the kernel; keep them lean) -------------

    def _emit(self, rec) -> None:
        """Keep one record: a row, or the dict of a ``task`` or
        end-of-run record, converted here."""
        if type(rec) is dict:
            keys = tuple(rec)
            rec = (SHAPES.get(keys) or shape(keys))(rec.values())
        if len(self.records) == RING_CAPACITY:
            self.dropped += 1
        self.records.append(rec)
        if self._stream is not None:
            self._stream.write(rec.to_dict())

    def _tid(self, task) -> int:
        meta = self._meta.get(id(task))
        if meta is None:
            # Seen before its spawn hook (shouldn't happen, but stay safe).
            meta = self._register(task, None, 0.0)
        return meta["tid"]

    def _register(self, task, parent, now_us: float) -> dict:
        tid = self._next_tid
        self._next_tid += 1
        meta = {"tid": tid, "obj": task, "name": task.name,
                "parent": None if parent is None else self._tid(parent),
                "start_us": now_us, "tags": {}}
        self._meta[id(task)] = meta
        return meta

    def _counter_pair(self, resource: str):
        """First bill on ``resource``: make (and cache) its two counters."""
        reg = self.registry
        pair = self._counters[resource] = (
            reg.counter("blame_wait_us_total", resource=resource),
            reg.counter("blame_service_us_total", resource=resource))
        return pair

    def _account(self, resource: str, wait_us: float,
                 service_us: float) -> None:
        tot = self.totals.get(resource)
        if tot is None:
            tot = self.totals[resource] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += wait_us
        tot[2] += service_us
        if self.registry is not None:
            pair = self._counters.get(resource) or self._counter_pair(resource)
            # Counter.inc, less the sign test just made.
            if wait_us > 0:
                pair[0].value += wait_us
            if service_us > 0:
                pair[1].value += service_us

    def on_spawn(self, task, parent, now_us: float) -> None:
        self._register(task, parent, now_us)

    def tag_current(self, **tags) -> None:
        """Merge ``tags`` into the currently running task's record."""
        kernel = self.kernel
        if kernel is None or kernel._current is None:
            return
        meta = self._meta.get(id(kernel._current))
        if meta is not None:
            meta["tags"].update(tags)

    def on_serve(self, task, resource: str, enqueue_us: float,
                 start_us: float, end_us: float) -> None:
        wait = start_us - enqueue_us
        service = end_us - start_us
        self._account(resource, wait, service)
        meta = self._meta.get(id(task))
        self._emit(_SERVE((
            "serve", self._tid(task) if meta is None else meta["tid"],
            resource, enqueue_us, start_us, end_us, wait, service)))

    def on_join(self, caller, child, start_us: float, end_us: float) -> None:
        if end_us <= start_us:
            return  # child already done: nothing to attribute
        self._emit(_JOIN(("join", self._tid(caller), self._tid(child),
                          start_us, end_us, end_us - start_us)))

    def on_task_end(self, task, now_us: float) -> None:
        meta = self._meta.get(id(task))
        if meta is None:
            return
        rec = {"type": "task", "task": meta["tid"], "name": meta["name"],
               "parent": meta["parent"], "start_us": meta["start_us"],
               "end_us": now_us}
        rec.update(meta["tags"])
        self._emit(rec)

    def on_job_start(self, task, name: str, arrival_us: float,
                     now_us: float) -> None:
        self._jobs[self._tid(task)] = (name, arrival_us, now_us)
        self._account(ADMISSION, now_us - arrival_us, 0.0)

    def on_job_done(self, task, now_us: float) -> None:
        tid = self._tid(task)
        job = self._jobs.pop(tid, None)
        if job is None:
            return
        name, arrival, start = job
        self._emit(_JOB(("job", tid, name, arrival, start, now_us,
                         start - arrival)))

    def on_shed(self, name: str, arrival_us: float) -> None:
        self.shed_count += 1
        self._emit(_SHED(("shed", name, arrival_us)))

    # -- lifecycle ---------------------------------------------------------

    def resource_rows(self) -> list[dict]:
        """Live per-resource state merged with the recorder's aggregates."""
        rows = []
        if self.kernel is None:
            return rows
        now = self.kernel.clock.now_us
        for res in self.kernel.resources():
            res.accrue_depth(now)
            tot = self.totals.get(res.name, (0, 0.0, 0.0))
            rows.append({"name": res.name, "lanes": res.lanes,
                         "served": res.served, "busy_us": res.busy_us,
                         "wait_us": tot[1], "service_us": tot[2],
                         "depth_area_us": res.depth_area_us,
                         "peak_depth": res.peak_depth})
        return rows

    def finish(self) -> None:
        """Emit per-resource summaries and the footer; close the stream.

        Idempotent: the second call is a no-op.
        """
        if self.finished:
            return
        self.finished = True
        for row in self.resource_rows():
            self._emit(dict(row, type="resource"))
        end = self.kernel.clock.now_us if self.kernel is not None else 0.0
        footer = {"type": "footer", "records": len(self.records),
                  "dropped": self.dropped,
                  "start_us": self.start_us or 0.0, "end_us": end,
                  "shed": self.shed_count}
        adm = self.admission
        if adm is not None:
            footer["arrived"] = adm.stats.arrived
            footer["completed"] = adm.stats.completed
            footer["rejected"] = adm.stats.rejected
        self._emit(footer)
        if self._stream is not None:
            self._stream.close()

    def export_jsonl(self, path: str) -> int:
        """Write header plus every retained record to ``path``.

        Calls :meth:`finish` first so resource summaries and the footer
        are present.  A streaming recorder's file already is ``path``
        and is finalised there.  Returns the number of records the file
        holds.
        """
        self.finish()
        if self._stream is not None:
            return self._stream.finish(path)
        return write_jsonl(path, (rec.to_dict() for rec in self.records),
                           header={"schema": BLAME_SCHEMA})

    def capacity(self, completed: int | None = None) -> dict:
        """Operational capacity model over the live kernel state."""
        if self.kernel is None:
            raise ValueError("recorder not attached to a kernel")
        horizon = self.kernel.clock.now_us - (self.start_us or 0.0)
        return capacity_model(self.resource_rows(), horizon,
                              completed=completed)


# ---------------------------------------------------------------------------
# Loading


@dataclass
class BlameLog:
    """A parsed ``repro.obs.blame/v1`` JSONL file; ``torn_tail`` counts
    cut final records skipped (a run killed mid-write)."""

    path: str
    header: dict
    records: list = field(default_factory=list)
    resources: list = field(default_factory=list)
    footer: dict | None = None
    torn_tail: int = 0


def load_blame_jsonl(path: str) -> BlameLog:
    """Parse and schema-check a blame JSONL file (see :data:`BLAME_SCHEMA`).

    Raises :class:`ValueError` on a bad header, an unknown record type,
    or a record missing a required field.
    """
    records, torn = read_jsonl(path)
    lines = [rec for _, rec in records]
    if not lines or lines[0].get("schema") != BLAME_SCHEMA:
        raise ValueError(f"{path}: not a {BLAME_SCHEMA} file")
    log = BlameLog(path, header=lines[0], torn_tail=torn)
    for rec in lines[1:]:
        kind = rec.get("type")
        fields = _RECORD_FIELDS.get(kind)
        if fields is None:
            raise ValueError(f"{path}: unknown record type {kind!r}")
        for name in fields:
            if name not in rec:
                raise ValueError(
                    f"{path}: {kind} record missing field {name!r}: "
                    f"{rec}")
        if kind == "resource":
            log.resources.append(rec)
        elif kind == "footer":
            log.footer = rec
        else:
            log.records.append(rec)
    return log


# ---------------------------------------------------------------------------
# Per-query critical-path assembly


@dataclass
class QueryBlame:
    """One query's exact latency decomposition."""

    task: int
    name: str
    qid: int | None
    start_us: float
    end_us: float
    admission_wait_us: float
    #: resource -> time spent waiting in its queue (admission excluded).
    wait_us: dict = field(default_factory=dict)
    #: resource -> time spent in service.
    service_us: dict = field(default_factory=dict)
    #: name of the fan-out child that finished last (None without fan-out).
    straggler: str | None = None

    @property
    def total_us(self) -> float:
        """End-to-end latency: admission wait + task lifetime."""
        return self.admission_wait_us + (self.end_us - self.start_us)

    @property
    def components_us(self) -> float:
        """Sum of every attributed component (``total_us`` up to float
        rounding; see :attr:`residual_us`)."""
        return (self.admission_wait_us + sum(self.wait_us.values())
                + sum(self.service_us.values()))

    @property
    def residual_us(self) -> float:
        """Unattributed time: ``total_us - components_us``.

        Zero in exact arithmetic, since the blocked intervals tile the
        lifetime.  In floats the two sums round differently: exactly 0.0
        when every timestamp is representable (dyadic durations), else a
        few ulps of the timestamps (about 1e-11 us at second-scale
        simulated times).  A missing record leaves a residual of its
        whole interval instead.
        """
        return self.total_us - self.components_us

    def to_dict(self) -> dict:
        return {
            "task": self.task,
            "name": self.name,
            "qid": self.qid,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "admission_wait_us": self.admission_wait_us,
            "wait_us": self.wait_us,
            "service_us": self.service_us,
            "straggler": self.straggler,
            "total_us": self.total_us,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "QueryBlame":
        return cls(task=d["task"], name=d["name"], qid=d.get("qid"),
                   start_us=d["start_us"], end_us=d["end_us"],
                   admission_wait_us=d["admission_wait_us"],
                   wait_us=dict(d.get("wait_us", {})),
                   service_us=dict(d.get("service_us", {})),
                   straggler=d.get("straggler"))


# A live ring's fixed-shape rows, read by position (C calls, no frames):
# a serve's (resource, enqueue_us, start_us, end_us), a join's (child,
# start_us, end_us, wait_us), the task id, a job's wait_us.
_item = tuple.__getitem__
_SERVE_READ = slice(2, 6)
_JOIN_READ = slice(2, 6)
_TASK = 1
_JOB_WAIT = 6


class _Index:
    """Record lookups keyed by task id, built once per assembly.  Each
    record is read once, here: a serve or a join as the tuple
    :func:`_attribute` unpacks, a job as its admission wait, a task as
    its dict."""

    def __init__(self, records) -> None:
        self.serves: dict[int, list] = {}
        self.joins: dict[int, list] = {}
        self.tasks: dict[int, dict] = {}
        self.jobs: dict[int, float] = {}
        for rec in records:
            cls = type(rec)
            if cls is _SERVE:
                self.serves.setdefault(_item(rec, _TASK), []).append(
                    _item(rec, _SERVE_READ))
                continue
            if cls is _JOIN:
                self.joins.setdefault(_item(rec, _TASK), []).append(
                    _item(rec, _JOIN_READ))
                continue
            if cls is _JOB:
                self.jobs[_item(rec, _TASK)] = _item(rec, _JOB_WAIT)
                continue
            if cls is not dict:
                rec = rec.to_dict()
            kind = rec.get("type")
            if kind == "serve":
                self.serves.setdefault(rec["task"], []).append((
                    rec["resource"], rec["enqueue_us"], rec["start_us"],
                    rec["end_us"]))
            elif kind == "join":
                self.joins.setdefault(rec["task"], []).append((
                    rec["child"], rec["start_us"], rec["end_us"],
                    rec["wait_us"]))
            elif kind == "task":
                self.tasks[rec["task"]] = rec
            elif kind == "job":
                self.jobs[rec["task"]] = rec["wait_us"]


def _attribute(idx: _Index, tid: int, lo: float, hi: float,
               waits: dict, services: dict) -> None:
    """Attribute the task's blocked time clipped to ``[lo, hi]``.

    Serve intervals split into their wait ``[enqueue, start]`` and
    service ``[start, end]`` parts; join intervals recurse into the
    child.  Because simulated time only advances while *every* live
    task is blocked, the clipped intervals tile ``[lo, hi]`` exactly.
    """
    for res, enqueue, start, end in idx.serves.get(tid, ()):
        if end <= lo or enqueue >= hi:
            continue
        wait = (min(start, hi) - max(enqueue, lo))
        if wait > 0:
            waits[res] = waits.get(res, 0.0) + wait
        service = (min(end, hi) - max(start, lo))
        if service > 0:
            services[res] = services.get(res, 0.0) + service
    for child, start, end, _ in idx.joins.get(tid, ()):
        jlo = max(start, lo)
        jhi = min(end, hi)
        if jhi > jlo:
            _attribute(idx, child, jlo, jhi, waits, services)


def assemble_queries(records) -> list[QueryBlame]:
    """Build one :class:`QueryBlame` per top-level (parentless) task.

    ``records`` is an iterable of blame record dicts (a
    :attr:`BlameLog.records` list or a live recorder's ring).  Tasks
    still running when recording stopped are skipped — only completed
    task records decompose exactly.
    """
    idx = _Index(records)
    out = []
    for tid, trec in sorted(idx.tasks.items()):
        if trec.get("parent") is not None:
            continue
        q = QueryBlame(task=tid, name=trec["name"], qid=trec.get("qid"),
                       start_us=trec["start_us"], end_us=trec["end_us"],
                       admission_wait_us=idx.jobs.get(tid, 0.0))
        _attribute(idx, tid, trec["start_us"], trec["end_us"],
                   q.wait_us, q.service_us)
        # joins: (child, start_us, end_us, wait_us)
        joins = [j for j in idx.joins.get(tid, ()) if j[3] > 0]
        if joins:
            last = max(joins, key=lambda j: j[2])
            child = idx.tasks.get(last[0])
            if child is not None:
                q.straggler = child["name"]
        out.append(q)
    return out


# ---------------------------------------------------------------------------
# Differential blame: tail cohort vs median cohort


def _cohort_means(cohort) -> tuple[dict, dict]:
    waits: dict[str, float] = {}
    services: dict[str, float] = {}
    n = len(cohort)
    if n == 0:
        return waits, services
    for q in cohort:
        if q.admission_wait_us > 0:
            waits[ADMISSION] = waits.get(ADMISSION, 0.0) + q.admission_wait_us
        for res, us in q.wait_us.items():
            waits[res] = waits.get(res, 0.0) + us
        for res, us in q.service_us.items():
            services[res] = services.get(res, 0.0) + us
    return ({k: v / n for k, v in waits.items()},
            {k: v / n for k, v in services.items()})


def blame_profiles(queries, tail_pct: float = 99.0) -> dict:
    """Differential blame: which resource's *wait* grew in the tail.

    Splits queries (by end-to-end latency) into a tail cohort — at or
    above the ``tail_pct`` percentile — and a median cohort between the
    :data:`MEDIAN_BAND` percentiles, then reports each cohort's mean
    per-resource wait and the growth between them.  ``verdict`` names
    the resource whose wait grew most.
    """
    qs = sorted(queries, key=lambda q: q.total_us)
    n = len(qs)
    if n == 0:
        return {"queries": 0, "tail": [], "verdict": None}
    cut = min(n - 1, int(math.floor(n * tail_pct / 100.0)))
    tail = qs[cut:]
    lo = int(math.floor(n * MEDIAN_BAND[0] / 100.0))
    hi = max(lo + 1, int(math.ceil(n * MEDIAN_BAND[1] / 100.0)))
    median = qs[lo:hi]
    t_wait, t_service = _cohort_means(tail)
    m_wait, _m_service = _cohort_means(median)
    growth = {res: t_wait.get(res, 0.0) - m_wait.get(res, 0.0)
              for res in set(t_wait) | set(m_wait)}
    verdict = max(growth, key=growth.get) if growth else None
    return {
        "queries": n,
        "tail_pct": tail_pct,
        "tail_count": len(tail),
        "median_count": len(median),
        "tail_total_mean_us": sum(q.total_us for q in tail) / len(tail),
        "median_total_mean_us": (sum(q.total_us for q in median)
                                 / len(median)) if median else 0.0,
        "tail_wait_mean_us": t_wait,
        "tail_service_mean_us": t_service,
        "median_wait_mean_us": m_wait,
        "wait_growth_us": growth,
        "verdict": verdict,
    }


# ---------------------------------------------------------------------------
# Capacity model


def capacity_model(resources, horizon_us: float,
                   completed: int | None = None) -> dict:
    """Per-resource operational laws over a measurement horizon.

    For each resource row (as written by the recorder's ``resource``
    records): utilization, served throughput, mean wait/service, and a
    Little's-law self-check — ``L`` measured as the queue's depth-time
    integral divided by the horizon vs ``lambda * W`` from the sojourn
    sums.  The two sides come from independent instrumentation (depth
    accounting vs per-request timestamps), so a mismatch beyond
    :data:`LITTLE_LAW_TOL` flags a broken recorder, not a broken queue.
    ``knee_qps`` extrapolates the capacity knee by scaling completed
    throughput to 100% bottleneck utilization.
    """
    per_resource: dict[str, dict] = {}
    bottleneck = None
    max_rel_err = 0.0
    for row in resources:
        served = row["served"]
        util = (min(1.0, row["busy_us"] / (horizon_us * row["lanes"]))
                if horizon_us > 0 else 0.0)
        l_measured = row["depth_area_us"] / horizon_us if horizon_us > 0 \
            else 0.0
        l_lambda_w = ((row["wait_us"] + row["service_us"]) / horizon_us
                      if horizon_us > 0 else 0.0)
        if l_lambda_w > 0:
            rel_err = abs(l_measured - l_lambda_w) / l_lambda_w
        else:
            rel_err = abs(l_measured)
        entry = {
            "lanes": row["lanes"],
            "served": served,
            "utilization": util,
            "throughput_qps": (served / (horizon_us / 1e6)
                               if horizon_us > 0 else 0.0),
            "mean_wait_us": row["wait_us"] / served if served else 0.0,
            "mean_service_us": row["service_us"] / served if served else 0.0,
            "little_L_measured": l_measured,
            "little_L_lambda_w": l_lambda_w,
            "little_rel_err": rel_err,
        }
        per_resource[row["name"]] = entry
        if served > 0:
            max_rel_err = max(max_rel_err, rel_err)
            if bottleneck is None or util > per_resource[bottleneck][
                    "utilization"]:
                bottleneck = row["name"]
    bu = per_resource[bottleneck]["utilization"] if bottleneck else 0.0
    knee = None
    if completed is not None and bu > 0 and horizon_us > 0:
        knee = (completed / (horizon_us / 1e6)) / bu
    return {
        "horizon_us": horizon_us,
        "per_resource": per_resource,
        "bottleneck": bottleneck,
        "bottleneck_utilization": bu,
        "knee_qps": knee,
        "little_law_max_rel_err": max_rel_err,
        "little_law_ok": max_rel_err <= LITTLE_LAW_TOL,
        "little_law_tol": LITTLE_LAW_TOL,
    }


# ---------------------------------------------------------------------------
# Formatting


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.2f} s"
    if us >= 1e3:
        return f"{us / 1e3:.2f} ms"
    return f"{us:.1f} us"


def format_query_blame(q: QueryBlame) -> str:
    """Render one query's decomposition as aligned text lines."""
    lines = [f"query task {q.task} ({q.name}"
             + (f", qid {q.qid}" if q.qid is not None else "") + "): "
             f"total {_fmt_us(q.total_us)}"]
    total = q.total_us or 1.0
    if q.admission_wait_us > 0:
        lines.append(f"  {'admission wait':<22s} "
                     f"{_fmt_us(q.admission_wait_us):>12s}  "
                     f"{q.admission_wait_us / total:6.1%}")
    for res in sorted(set(q.wait_us) | set(q.service_us)):
        w = q.wait_us.get(res, 0.0)
        s = q.service_us.get(res, 0.0)
        lines.append(f"  {res:<22s} wait {_fmt_us(w):>10s}  "
                     f"service {_fmt_us(s):>10s}  "
                     f"{(w + s) / total:6.1%}")
    if q.straggler:
        lines.append(f"  straggler: {q.straggler}")
    lines.append(f"  residual {q.residual_us:.3f} us")
    return "\n".join(lines)


def format_blame_report(queries, profiles: dict, capacity: dict) -> str:
    """The full ``repro blame DIR`` text report."""
    lines = [f"blame: {profiles.get('queries', len(queries))} queries"]
    if profiles.get("verdict") is not None:
        lines.append(
            f"\ntail (p{profiles['tail_pct']:g}, n={profiles['tail_count']}) "
            f"mean {_fmt_us(profiles['tail_total_mean_us'])} vs median "
            f"cohort (n={profiles['median_count']}) "
            f"{_fmt_us(profiles['median_total_mean_us'])}")
        lines.append("wait growth, tail minus median:")
        for res, us in sorted(profiles["wait_growth_us"].items(),
                              key=lambda kv: -kv[1]):
            mark = "  <- blame" if res == profiles["verdict"] else ""
            lines.append(f"  {res:<22s} {_fmt_us(us):>12s}{mark}")
    per = capacity.get("per_resource", {})
    if per:
        lines.append("\ncapacity model "
                     f"(horizon {_fmt_us(capacity['horizon_us'])}):")
        lines.append(f"  {'resource':<22s} {'util':>6s} {'qps':>9s} "
                     f"{'mean wait':>11s} {'mean svc':>11s} {'L meas':>8s} "
                     f"{'L=lam*W':>8s}")
        for name, e in sorted(per.items(),
                              key=lambda kv: -kv[1]["utilization"]):
            lines.append(
                f"  {name:<22s} {e['utilization']:6.1%} "
                f"{e['throughput_qps']:9.1f} "
                f"{_fmt_us(e['mean_wait_us']):>11s} "
                f"{_fmt_us(e['mean_service_us']):>11s} "
                f"{e['little_L_measured']:8.3f} "
                f"{e['little_L_lambda_w']:8.3f}")
        lines.append(
            f"  bottleneck: {capacity['bottleneck']} at "
            f"{capacity['bottleneck_utilization']:.1%}"
            + (f"; knee ~{capacity['knee_qps']:.1f} qps"
               if capacity.get("knee_qps") else ""))
        check = "ok" if capacity["little_law_ok"] else "FAILED"
        lines.append(
            f"  Little's-law self-check: {check} (max rel err "
            f"{capacity['little_law_max_rel_err']:.2e}, tol "
            f"{capacity['little_law_tol']:g})")
    return "\n".join(lines)
