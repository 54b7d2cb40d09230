"""How one pass is timed, checked and turned into simulated metrics.

Two clocks appear here and every number says which one it is on:
*host* time is what the simulator takes to run, *simulated* time is
what the modelled hardware would take (the manager's ``VirtualClock``).
Simulated numbers repeat exactly for a seed.  Host numbers carry this
box's noise, so the gated ones are taken with two defences.  They are
**CPU time** of the process (``time.process_time_ns``, all threads)
around one call into the public serving entry point: the simulator does
no I/O and runs one thread at a time, so CPU time is its cost, and
unlike wall time it does not count what the hypervisor steals or
another process pre-empts (on this box up to 28 % of a run, in bursts).
And each pass is bracketed by a fixed pure-Python calibration loop, and
the metric is the ratio of the two, which takes out the box's changing
speed.  Wall time is kept next to it as a diagnostic.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import math
import time
from array import array
from dataclasses import dataclass, field

from repro._hot import HOT
from repro.obs import FlightRecorder, Telemetry

from hostbench import workloads as wl

__all__ = ["CAL_ITERS", "calibrate", "serving_gc", "Probe", "PassResult",
           "armed_telemetry", "run_pass", "percentile", "digest_of"]

#: Iterations of the calibration loop (~0.13 s on this box).
CAL_ITERS = 1_000_000
#: Timeline window of the armed pass (the bench harness's).
WINDOW_US = 100_000.0
#: ``check_invariants`` cadence inside a traced pass.
INVARIANT_EVERY = 500


def calibrate(iters: int = CAL_ITERS) -> float:
    """Host CPU ns per iteration of a fixed dict-store + int-add loop.

    The loop exercises what the simulator's hot paths are made of
    (bytecode dispatch, small-int arithmetic, dict stores), so a box
    that is slow right now is slow on both, and the ratio
    pass-ns-per-query / calibration-ns-per-iteration moves far less
    from process to process than either does alone.
    """
    table: dict[int, int] = {}
    acc = 0
    t0 = time.process_time_ns()
    for i in range(iters):
        table[i & 1023] = acc
        acc += i
    return (time.process_time_ns() - t0) / iters


@contextlib.contextmanager
def serving_gc():
    """The bench harness's GC discipline for a measured serve: collect,
    freeze the long-lived stack out of the collector, disable cycle
    collection for the bounded-allocation serve loop."""
    gc.collect()
    gc.freeze()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
        gc.unfreeze()


class Probe:
    """Per-operation probe on one manager instance.

    Shadows ``manager.process_query`` with a closure that stamps the
    simulated clock at entry and exit and turns an exception into a
    counted failed operation instead of an aborted pass.  It is present
    in every measured pass, off and armed alike, so its two list
    appends are part of the ruler, not of what the ruler measures.
    """

    def __init__(self, manager, every: int = 0, check=None) -> None:
        self.starts: list[float] = []
        self.ends: list[tuple[int, float]] = []
        self.errors: list[str] = []
        inner = manager.process_query
        clock = manager.clock
        starts, ends, errors = self.starts, self.ends, self.errors

        def process_query(query):
            k = len(starts)
            starts.append(clock.now_us)
            try:
                out = inner(query)
            except Exception as exc:  # counted, reported, pass continues
                errors.append(f"query #{k}: {exc!r}")
                out = None
            ends.append((k, clock.now_us))
            if every and len(ends) % every == 0:
                check()
            return out

        manager.process_query = process_query

    def responses(self, arrivals: list[float] | None = None) -> list[float]:
        """Simulated response time per completed query, in start order:
        exit minus entry closed-loop, exit minus arrival open-loop."""
        base = self.starts if arrivals is None else arrivals
        out = [0.0] * len(self.ends)
        for k, end_us in self.ends:
            out[k] = end_us - base[k]
        return out


@dataclass
class PassResult:
    """One measured pass."""

    mode: str
    #: host wall and CPU ns inside the one serving call
    wall_ns: int
    cpu_ns: int
    #: host CPU ns per calibration iteration, mean of before and after
    cal_ns_per_iter: float
    #: queries submitted to the serving call
    submitted: int
    #: queries that raised, were shed, or whose output failed a check
    op_failures: int = 0
    #: a whole-pass check failed (the serving call raised, invariants
    #: broke, the simulated digest moved): every query of the pass fails
    pass_failed: bool = False
    #: one line per failure, for the report
    failures: list[str] = field(default_factory=list)
    #: canonical simulated metrics (see :func:`digest_of`)
    sim: dict = field(default_factory=dict)
    digest: str = ""
    #: HOT counter deltas over the serving call
    hot: dict = field(default_factory=dict)
    responses_us: list = field(default_factory=list, repr=False)
    #: the stack the pass ran on, for harnesses that inspect what it
    #: left behind; dropped as soon as nothing needs it
    manager: object = field(default=None, repr=False)

    @property
    def failed_ops(self) -> int:
        if self.pass_failed:
            return self.submitted
        return min(self.submitted, self.op_failures)

    def fail_pass(self, why: str) -> None:
        self.pass_failed = True
        self.failures.append(why)

    @property
    def wall_us_per_query(self) -> float:
        return self.wall_ns / 1000.0 / self.submitted

    @property
    def cal_per_query(self) -> float:
        """Calibration-loop iterations one query costs."""
        return self.cpu_ns / self.submitted / self.cal_ns_per_iter

    def record(self) -> dict:
        """The JSON-able part (what ``--out`` keeps per repeat)."""
        return {"mode": self.mode, "wall_ns": self.wall_ns,
                "cpu_ns": self.cpu_ns,
                "cal_ns_per_iter": self.cal_ns_per_iter,
                "wall_us_per_query": self.wall_us_per_query,
                "cal_per_query": self.cal_per_query,
                "submitted": self.submitted, "failed": self.failed_ops,
                "failures": self.failures, "digest": self.digest}


def armed_telemetry() -> Telemetry:
    """Program telemetry as an operator would arm it: spans + audit
    (``Telemetry()`` defaults), a windowed timeline, and the flight
    recorder in counting mode — nothing is written to disk."""
    tel = Telemetry()
    tel.attach_timeline(window_us=WINDOW_US)
    FlightRecorder(tel, out_dir=None).arm()
    return tel


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def digest_of(sim: dict) -> str:
    """SHA-256 of the canonical simulated metrics.  ``json`` writes
    floats with ``repr``, so two passes agree only bit for bit."""
    return hashlib.sha256(
        json.dumps(sim, sort_keys=True).encode()).hexdigest()


_FTL_FIELDS = ("host_page_reads", "host_page_writes", "gc_page_reads",
               "gc_page_writes", "block_erases", "trimmed_pages")


def _ftl_snapshot(manager) -> dict:
    stats = manager.ssd.ftl.stats
    return {name: getattr(stats, name) for name in _FTL_FIELDS}


def run_pass(w: wl.Workload, inputs: wl.Inputs, seed: int, mode: str,
             manager=None, loop: str | None = None,
             recorder=None) -> PassResult:
    """Build (unless given), warm, and time one pass.

    ``mode`` is "off" (``telemetry=None``), "armed" (see
    :func:`armed_telemetry`) or "traced" (telemetry off; the caller has
    installed :mod:`hostbench.trace`, built ``manager`` under it and
    passes its ``recorder``, whose root span brackets the call).
    ``loop`` overrides the workload's serving entry point — the kernel
    path ratio pairs an open pass with a closed one over the same
    queries.
    """
    loop = loop or w.loop
    if manager is None:
        manager = wl.build_manager(
            w, inputs, seed,
            telemetry=armed_telemetry() if mode == "armed" else None)
    broken: list[str] = []

    def check() -> None:
        try:
            manager.check_invariants()
            manager.ssd.ftl.nand.check_invariants()
        except AssertionError as exc:
            broken.append(f"invariant: {exc}")

    probe = Probe(manager, every=INVARIANT_EVERY if mode == "traced" else 0,
                  check=check)
    erase_base = manager.ssd.erase_count
    ftl_base = _ftl_snapshot(manager)
    start_us = manager.clock.now_us
    result = None
    with serving_gc():
        cal_before = calibrate()
        hot_base = HOT.snapshot()
        if recorder is not None:
            recorder.begin_root()
        t0, c0 = time.perf_counter_ns(), time.process_time_ns()
        try:
            result = wl.serve(w, manager, inputs, seed, loop=loop)
        except Exception as exc:  # the whole pass is lost, and says so
            broken.append(f"serve raised: {exc!r}")
        cpu_ns = time.process_time_ns() - c0
        wall_ns = time.perf_counter_ns() - t0
        if recorder is not None:
            recorder.end_root()
        hot = HOT.delta(hot_base)
        cal_after = calibrate()
    check()

    rejected = 0
    arrivals = None
    if loop == "open" and result is not None:
        rejected = result.rejected
        if result.completed + result.rejected != result.arrived:
            broken.append("admission: completed + rejected != arrived")
        arrivals = wl.arrival_times(w, seed, start_us, w.measured)
    # A shed query never reaches process_query, so start order no longer
    # lines up with arrival order and per-query responses are unknown.
    responses = [] if rejected else probe.responses(arrivals)
    if arrivals is not None and responses:
        mean = sum(responses) / len(responses)
        if not math.isclose(mean, result.mean_response_us, rel_tol=1e-9):
            broken.append("arrival replay disagrees with run_open_loop's "
                          "mean response")

    stats = manager.stats
    ordered = sorted(responses)
    ftl_now = _ftl_snapshot(manager)
    sim = {
        "queries": stats.queries,
        "mean_response_us": (sum(responses) / len(responses)
                             if responses else 0.0),
        "p95_response_us": percentile(ordered, 95.0),
        "p99_response_us": percentile(ordered, 99.0),
        "combined_hit_ratio": stats.combined_hit_ratio,
        "result_l1_hits": stats.result_l1_hits,
        "result_l2_hits": stats.result_l2_hits,
        "result_misses": stats.result_misses,
        "list_l1_hits": stats.list_l1_hits,
        "list_l2_hits": stats.list_l2_hits,
        "list_partial_hits": stats.list_partial_hits,
        "list_misses": stats.list_misses,
        "situations": {s.name: n for s, n in stats.situation_counts.items()},
        "ssd_erases": manager.ssd.erase_count - erase_base,
        "ftl": {k: ftl_now[k] - ftl_base[k] for k in _FTL_FIELDS},
        "rejected": rejected,
        "end_clock_us": manager.clock.now_us,
        "responses_sha256": hashlib.sha256(
            array("d", responses).tobytes()).hexdigest(),
    }
    failures = list(probe.errors)
    if rejected:
        failures.append(f"{rejected} queries shed by admission")
    return PassResult(
        mode=mode, wall_ns=wall_ns, cpu_ns=cpu_ns,
        cal_ns_per_iter=(cal_before + cal_after) / 2.0,
        submitted=w.measured, op_failures=len(probe.errors) + rejected,
        pass_failed=bool(broken), failures=failures + broken,
        sim=sim, digest=digest_of(sim), hot=hot, responses_us=responses,
        manager=manager,
    )
