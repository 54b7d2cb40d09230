"""The repeat loop and the end-to-end metrics.

One *repeat* is a complete set-up (corpus statistics, seeded query log,
fresh stack, warm-up — timed as one ``setup_s`` sample) followed by two
passes over the same queries, interleaved: program telemetry **off**,
then **armed**.  Repeats run until ``--seconds`` is used up, and never
fewer than three, so every host number is a median and the first off
pass has company to disagree with.  Simulated metrics come from the
first off pass; every later pass must reproduce its digest.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass, field

from hostbench import measure
from hostbench import workloads as wl

__all__ = ["Repeat", "Run", "run_repeats", "end_to_end_samples",
           "end_to_end_metrics", "iqr_fraction"]

MIN_REPEATS = 3
#: The calibration loop's pace on the box ``setup_s`` is quoted for.
REFERENCE_CAL_NS = 100.0


@dataclass
class Repeat:
    setup_s: float
    off: measure.PassResult
    armed: measure.PassResult
    #: open-loop workloads in a traced run: a closed-loop pass over the
    #: same queries, for the kernel path ratio
    closed: measure.PassResult | None = None

    def passes(self) -> list:
        return [p for p in (self.off, self.armed, self.closed) if p]

    def record(self) -> dict:
        out = {"setup_s": self.setup_s}
        out.update({p.mode: p.record() for p in self.passes()})
        return out


@dataclass
class Run:
    """All the passes of one workload run, and what they agree on."""

    repeats: list[Repeat] = field(default_factory=list)
    #: passes outside the repeat loop (the traced pass)
    extra: list[measure.PassResult] = field(default_factory=list)
    #: failed output checks outside any pass (codec, replay)
    check_failures: list[str] = field(default_factory=list)

    @property
    def reference(self) -> measure.PassResult:
        return self.repeats[0].off

    def passes(self) -> list[measure.PassResult]:
        return [p for r in self.repeats for p in r.passes()] + self.extra

    def enforce_digest(self) -> None:
        """Off, armed and traced passes of one seed must agree bit for
        bit (observe-never-perturb); a pass that does not is failed as
        a whole.  Closed-pair passes simulate a different schedule and
        are compared among themselves."""
        first_closed = next((r.closed for r in self.repeats if r.closed), None)
        for p in self.passes():
            want = first_closed if p.mode == "closed" else self.reference
            if p.digest != want.digest and not p.pass_failed:
                p.fail_pass(f"sim_digest of the {p.mode} pass differs from "
                            f"the first {want.mode} pass")

    @property
    def attempted(self) -> int:
        return sum(p.submitted for p in self.passes())

    @property
    def failed(self) -> int:
        return (sum(p.failed_ops for p in self.passes())
                + len(self.check_failures))

    def failures(self) -> list[str]:
        return ([f"[{p.mode}] {line}" for p in self.passes()
                 for line in p.failures] + self.check_failures)


def one_repeat(w: wl.Workload, seed: int, closed_pair: bool = False) -> Repeat:
    t0 = time.process_time()
    inputs = wl.make_inputs(w, seed)
    manager = wl.build_manager(w, inputs, seed)
    setup_s = time.process_time() - t0
    off = measure.run_pass(w, inputs, seed, "off", manager=manager)
    armed = measure.run_pass(w, inputs, seed, "armed")
    closed = None
    if closed_pair:
        closed = measure.run_pass(w, inputs, seed, "closed", loop="closed")
    rep = Repeat(setup_s, off, armed, closed)
    for p in rep.passes():  # the stacks are dead weight from here on
        p.manager = None
    return rep


def run_repeats(w: wl.Workload, seed: int, budget_s: float,
                min_repeats: int = MIN_REPEATS, closed_pair: bool = False,
                run: Run | None = None) -> Run:
    """Repeat until the next one would overrun ``budget_s`` (wall), but
    at least ``min_repeats`` times — unless the box is so slow that the
    budget is gone already: the contract caps the time of all runs
    together, and two repeats late beat three never."""
    run = run or Run()
    begin = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run.repeats.append(one_repeat(w, seed, closed_pair))
        now = time.perf_counter()
        elapsed, last = now - begin, now - t0
        if elapsed > budget_s:
            break
        if len(run.repeats) >= min_repeats and elapsed + last > budget_s:
            break
    run.enforce_digest()
    return run


def iqr_fraction(values: list[float]) -> float:
    """Interquartile distance as a share of the median (0 below two
    samples), the spread the benchmark contract uses."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end_samples(run: Run, import_s: float,
                       import_cal_ns: float) -> dict[str, list]:
    """Every sample behind the eight end-to-end metrics: one per repeat
    for host time, one for memory and for each simulated metric (the
    first off pass's — every later pass must reproduce it).

    ``setup_s`` is in seconds *at reference speed*: each stretch of
    set-up is scaled by ``REFERENCE_CAL_NS`` over the calibration taken
    next to it (``import_cal_ns`` right after loading the program, the
    off pass's for the repeat's set-up).  This box changes speed by
    1.6x from one quarter of an hour to the next, and raw seconds would
    fail their bound on that alone; the other host metrics are ratios
    to the calibration loop already.

    ``sim_ssd_erases_plus1`` is the erase count plus one: ``closed_fit``
    and ``exec_taat`` erase nothing by design and a gated metric may
    never be 0, so the one erase that would matter there doubles it.
    """
    sim = run.reference.sim
    return {
        "host_cal_per_query": [r.off.cal_per_query for r in run.repeats],
        "host_cal_per_query_armed": [r.armed.cal_per_query
                                     for r in run.repeats],
        "setup_s": [REFERENCE_CAL_NS * (import_s / import_cal_ns
                                        + r.setup_s / r.off.cal_ns_per_iter)
                    for r in run.repeats],
        "peak_rss_mb": [resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0],
        "sim_mean_response_ms": [sim["mean_response_us"] / 1000.0],
        "sim_p95_response_ms": [sim["p95_response_us"] / 1000.0],
        "sim_combined_hit_ratio": [sim["combined_hit_ratio"]],
        "sim_ssd_erases_plus1": [sim["ssd_erases"] + 1],
    }


def end_to_end_metrics(samples: dict[str, list]) -> dict:
    """The reported value of each metric: the median of its samples."""
    return {name: statistics.median(values)
            for name, values in samples.items()}
