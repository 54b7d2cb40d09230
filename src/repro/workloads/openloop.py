"""Kernel-mode serving: arrival processes and the one concurrent driver.

Two generations of load analysis live here:

* **Analytic reference** — :func:`collect_service_times` +
  :func:`load_sweep` couple a closed-loop replay (pure service times)
  with the post-hoc FIFO queueing model of :mod:`repro.sim.queueing`.
  Response times are *derived*, not simulated; the model sees a single
  server and no cache-state feedback.  Kept as the reference curve the
  kernel path is validated against.
* **Emergent** — :class:`PoissonArrivals` / :class:`DiurnalArrivals`
  (or ``None``: closed-loop clients) feed :func:`drive`, which admits
  every query as its own task on the discrete-event kernel
  (:mod:`repro.sim.kernel`) and runs up to N concurrently —
  :func:`run_open_loop` through the live cache manager,
  ``Broker.run_open_loop`` through a shard fan-out.  Queueing delay,
  saturation, and tail growth emerge from per-device contention, and the
  cache state evolves under the same interleaving that produced the
  latencies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import CacheConfig
from repro.core.manager import CacheManager
from repro.engine.index import InvertedIndex
from repro.engine.querylog import QueryLog
from repro.obs.instruments import Histogram
from repro.sim.kernel import AdmissionControl, Kernel
from repro.sim.queueing import QueueResult, simulate_fifo_queue
from repro.sim.rng import make_rng
from repro.workloads.retrieval import prepare_cached_manager

__all__ = [
    "collect_service_times",
    "load_sweep",
    "PoissonArrivals",
    "DiurnalArrivals",
    "OpenLoopResult",
    "drive",
    "run_open_loop",
    "schedule_arrivals",
]


def collect_service_times(
    index: InvertedIndex,
    log: QueryLog,
    cache_config: CacheConfig,
    warmup_queries: int = 0,
    static_analyze_queries: int | None = None,
    seed: int = 1234,
    telemetry=None,
) -> np.ndarray:
    """Per-query service times (us) from a warm closed-loop replay.

    With a :class:`~repro.obs.Telemetry` attached, the replay records
    per-stage latency histograms plus a ``service_time_us`` histogram of
    the measured (post-warmup) sample, so the open-loop driver's inputs
    are inspectable through the same registry as everything else.
    """
    manager = prepare_cached_manager(
        index, log, cache_config,
        static_analyze_queries=static_analyze_queries, seed=seed,
        telemetry=telemetry)
    service_hist = (telemetry.registry.histogram("service_time_us")
                    if telemetry is not None else None)
    times: list[float] = []
    for i, query in enumerate(log):
        outcome = manager.process_query(query)
        if i >= warmup_queries:
            times.append(outcome.response_us)
            if service_hist is not None:
                service_hist.record(outcome.response_us)
    if not times:
        raise ValueError("no measured queries (warmup consumed the log)")
    return np.array(times, dtype=np.float64)


def load_sweep(
    service_times_us: np.ndarray,
    offered_rates_qps: list[float],
    seed: int = 0,
) -> list[QueueResult]:
    """Queue-simulate each offered rate over one service-time sample.

    Analytic reference: single post-hoc FIFO server, no cache feedback.
    :func:`run_open_loop` is the emergent equivalent.
    """
    if not offered_rates_qps:
        raise ValueError("offered_rates_qps must be non-empty")
    return [
        simulate_fifo_queue(service_times_us, rate, seed=seed)
        for rate in offered_rates_qps
    ]


# ---------------------------------------------------------------------------
# Arrival processes (event sources for the kernel)
# ---------------------------------------------------------------------------

class PoissonArrivals:
    """Homogeneous Poisson arrivals at ``rate_qps``.

    ``next_after(t_us)`` draws the next absolute arrival time after
    ``t_us`` — exponential gaps, seeded via :func:`repro.sim.rng.
    make_rng` so runs are reproducible.
    """

    kind = "poisson"

    def __init__(self, rate_qps: float, seed: int = 0) -> None:
        if rate_qps <= 0:
            raise ValueError(f"rate_qps must be positive: {rate_qps}")
        self.rate_qps = rate_qps
        self._mean_gap_us = 1e6 / rate_qps
        self._rng = make_rng(seed)

    def next_after(self, t_us: float) -> float:
        return t_us + float(self._rng.exponential(self._mean_gap_us))


class DiurnalArrivals:
    """Inhomogeneous Poisson arrivals tracking a compressed diurnal curve.

    The instantaneous rate swings sinusoidally between ``floor_fraction *
    peak_qps`` (night) and ``peak_qps`` (midday peak) with period
    ``period_s`` — compressed from 24 h to seconds so a short simulation
    sees whole cycles.  Sampling uses Lewis-Shedler thinning against the
    peak rate, which is exact for any bounded rate function.
    """

    kind = "diurnal"

    def __init__(
        self,
        peak_qps: float,
        period_s: float = 10.0,
        floor_fraction: float = 0.2,
        seed: int = 0,
    ) -> None:
        if peak_qps <= 0:
            raise ValueError(f"peak_qps must be positive: {peak_qps}")
        if period_s <= 0:
            raise ValueError(f"period_s must be positive: {period_s}")
        if not 0.0 < floor_fraction <= 1.0:
            raise ValueError(
                f"floor_fraction must be in (0, 1]: {floor_fraction}"
            )
        self.peak_qps = peak_qps
        self.period_us = period_s * 1e6
        self.floor_fraction = floor_fraction
        self._peak_gap_us = 1e6 / peak_qps
        self._rng = make_rng(seed)

    def rate_at(self, t_us: float) -> float:
        """Instantaneous arrival rate (qps) at simulated time ``t_us``."""
        phase = 2.0 * math.pi * (t_us / self.period_us)
        # -cos starts the cycle at the floor (night) and peaks mid-period.
        swing = 0.5 * (1.0 - math.cos(phase))
        lo = self.floor_fraction * self.peak_qps
        return lo + (self.peak_qps - lo) * swing

    def next_after(self, t_us: float) -> float:
        rng = self._rng
        t = t_us
        while True:
            t += float(rng.exponential(self._peak_gap_us))
            if rng.random() * self.peak_qps <= self.rate_at(t):
                return t


# ---------------------------------------------------------------------------
# The emergent open-loop driver
# ---------------------------------------------------------------------------

@dataclass
class OpenLoopResult:
    """Outcome of one emergent open-loop run (kernel-scheduled)."""

    label: str
    arrival: str
    offered_qps: float
    concurrency: int
    duration_us: float
    arrived: int
    completed: int
    rejected: int
    mean_response_us: float
    p50_us: float
    p90_us: float
    p99_us: float
    p999_us: float
    #: Mean admission wait (arrival -> query start); device queueing
    #: delay is inside the response times, not here.
    mean_wait_us: float
    peak_inflight: int
    #: Peak queued+in-service depth per kernel resource.
    peak_resource_depth: dict[str, int] = field(default_factory=dict)
    #: Busy fraction per kernel resource over the run (1.0 = saturated).
    utilization: dict[str, float] = field(default_factory=dict)

    @property
    def throughput_qps(self) -> float:
        if self.duration_us <= 0:
            return 0.0
        return self.completed / (self.duration_us / 1e6)

    @property
    def reject_fraction(self) -> float:
        return self.rejected / self.arrived if self.arrived else 0.0

    def row(self) -> str:
        """One printable table row for the CLI sweep output."""
        return (
            f"{self.offered_qps:>9.1f} {self.throughput_qps:>9.1f} "
            f"{self.mean_response_us / 1000.0:>9.2f} "
            f"{self.p99_us / 1000.0:>9.2f} {self.p999_us / 1000.0:>9.2f} "
            f"{self.mean_wait_us / 1000.0:>9.2f} "
            f"{self.rejected:>7d} {max(self.peak_resource_depth.values(), default=0):>6d}"
        )


def schedule_arrivals(kernel: Kernel, arrivals, count: int, submit) -> None:
    """Chain ``count`` arrival events on the kernel, one at a time.

    Each event calls ``submit(index, arrival_us)`` then schedules the
    next arrival — one event in flight keeps inhomogeneous processes
    (whose rate depends on the current time) exact.
    """
    remaining = iter(range(count))

    def arrive() -> None:
        i = next(remaining, None)
        if i is None:
            return
        now = kernel.clock._now_us
        submit(i, now)
        if i + 1 < count:
            kernel.at(arrivals.next_after(now), arrive)

    if count > 0:
        kernel.at(arrivals.next_after(kernel.clock.now_us), arrive)


def drive(
    kernel: Kernel,
    count: int,
    arrivals,
    serve,
    concurrency: int = 4,
    max_queue: int = 64,
    label: str = "open-loop",
    observe=None,
) -> OpenLoopResult:
    """The one kernel-mode serve driver: admit ``count`` queries, run
    ``serve(i)`` for each as its own kernel task ``q<i>``, drain, report.

    ``arrivals`` is an arrival process (open loop: ``concurrency`` in
    flight, ``max_queue`` waiting, beyond that shed) or ``None`` for a
    closed loop: ``concurrency`` clients, each submitting its next query
    through the same admission path the moment its previous one
    completes.  ``observe(kernel, admission)`` is called once before
    anything is scheduled.  The caller attaches devices to ``kernel``
    first and unbinds the clock afterwards.
    """
    clock = kernel.clock
    admission = AdmissionControl(kernel, max_inflight=concurrency,
                                 max_queue=max_queue)
    if observe is not None:
        observe(kernel, admission)
    start_us = clock.now_us
    responses: list[float] = []
    waits: list[float] = []

    def submit(i: int, arrival_us: float) -> None:
        def body():
            begin = clock._now_us
            serve(i)
            waits.append(begin - arrival_us)
            responses.append(clock._now_us - arrival_us)
            if arrivals is None:
                kernel.at(clock._now_us, next_client_query)

        admission.submit(body, name=f"q{i}")

    if arrivals is None:
        pending = iter(range(count))

        def next_client_query() -> None:
            # An event, not a call from the finishing task: the slot is
            # free by the time it runs and the new task is a root.
            i = next(pending, None)
            if i is not None:
                submit(i, clock._now_us)

        for _ in range(min(concurrency, count)):
            kernel.at(start_us, next_client_query)
    else:
        schedule_arrivals(kernel, arrivals, count, submit)
    kernel.run()
    admission.check_invariants()

    duration = clock.now_us - start_us
    if responses:
        hist = Histogram(lo=1.0, growth=1.02)
        hist.record_many(responses)
        p50, p90, p99, p999 = hist.percentiles((50.0, 90.0, 99.0, 99.9))
    else:
        p50 = p90 = p99 = p999 = 0.0
    offered = getattr(arrivals, "rate_qps", None)
    if offered is None:
        offered = getattr(arrivals, "peak_qps", 0.0)
    return OpenLoopResult(
        label=label,
        arrival=("closed" if arrivals is None
                 else getattr(arrivals, "kind", type(arrivals).__name__)),
        offered_qps=float(offered),
        concurrency=concurrency,
        duration_us=duration,
        arrived=admission.stats.arrived,
        completed=admission.stats.completed,
        rejected=admission.stats.rejected,
        mean_response_us=float(np.mean(responses)) if responses else 0.0,
        p50_us=p50,
        p90_us=p90,
        p99_us=p99,
        p999_us=p999,
        mean_wait_us=float(np.mean(waits)) if waits else 0.0,
        peak_inflight=admission.peak_depth,
        peak_resource_depth={r.name: r.peak_depth for r in kernel.resources()},
        utilization={r.name: r.utilization(duration)
                     for r in kernel.resources()},
    )


def run_open_loop(
    manager: CacheManager,
    queries,
    arrivals=None,
    concurrency: int = 4,
    max_queue: int = 64,
    cpu_lanes: int = 1,
    label: str = "open-loop",
    kernel: Kernel | None = None,
) -> OpenLoopResult:
    """Serve ``queries`` through the live ``manager`` on the kernel.

    :func:`drive` with ``serve(i) = manager.process_query(queries[i])``:
    admitted queries contend for the hierarchy's device resources, and
    response time is arrival to completion, so admission wait and device
    queueing are included — tails grow past the knee because of
    contention, not a model.  ``arrivals=None`` is the closed loop
    (``concurrency`` clients, no think time).

    The manager's cache state carries over: pre-warm with a closed-loop
    replay first when steady-state behaviour is wanted.  Detaches the
    kernel from the clock before returning so later closed-loop use of
    the same hierarchy is unaffected.
    """
    queries = list(queries)
    if not queries:
        raise ValueError("no queries to serve")
    clock = manager.clock
    own_kernel = kernel is None
    if kernel is None:
        kernel = Kernel(clock)
    manager.hierarchy.attach_kernel(kernel, cpu_lanes=cpu_lanes)
    tel = manager.telemetry
    blame = None

    def observe(kernel, admission) -> None:
        nonlocal blame
        if hasattr(tel, "observe_kernel"):
            tel.observe_kernel(kernel, admission)
        blame = getattr(tel, "blame", None)

    def serve(i: int) -> None:
        if blame is not None:
            # No yield point between here and process_query's own
            # stats read (strict handoff), so this qid is exactly
            # the one the query's spans and exemplars will carry.
            blame.tag_current(qid=manager.stats.queries)
        manager.process_query(queries[i])

    try:
        return drive(kernel, len(queries), arrivals, serve,
                     concurrency=concurrency, max_queue=max_queue,
                     label=label, observe=observe)
    finally:
        if own_kernel:
            clock.bind_kernel(None)
