# The thread-per-task kernel `repro.sim.kernel` replaced: the parent commit's
# module, verbatim below this comment.  It is the oracle the property in
# `test_sim_kernel_equivalence.py` compares the baton-passing kernel against
# with `==` — the promise is the identical schedule, not a close one.

"""Discrete-event concurrency kernel over the virtual clock.

The seed's serving path was strictly closed-loop: one query ran to
completion, advancing the shared :class:`~repro.sim.clock.VirtualClock`
inline at every device access, before the next query began.  Queueing
existed only as a post-hoc analytic model (:mod:`repro.sim.queueing`).
This module makes contention *emergent* instead: an event heap on the
virtual clock, cooperative query tasks, and per-resource service queues
with configurable parallelism (lanes) — NAND channels for the SSD, a
single-actuator seek queue for the HDD, CPU units for scoring.

**Execution model.**  A :class:`Task` is an arbitrary Python callable
whose call stack must be able to pause mid-flight (deep inside the cache
layers, at a device access).  Python generators cannot suspend a nested
call stack, so tasks run on OS threads with *strict handoff*: at any
instant exactly one thread — the kernel's event loop or a single task —
is runnable; every switch goes through a pair of events.  The scheduling
is therefore fully deterministic (the event heap orders by ``(time,
sequence)``), the GIL-protected state needs no locks, and the existing
cache/device code runs unchanged inside tasks.

**The yield point.**  Devices do not call the kernel directly.  They
call :meth:`VirtualClock.consume`, which — when a kernel is bound and
the caller is inside a kernel task — turns the service time into an I/O
request queued on the channel's :class:`Resource` and blocks the task
until the completion event fires.  Outside any task the same call
degenerates to ``advance`` + ``charge``, which is byte-for-byte the
seed's closed-loop accounting; `tests/test_core_parity.py` proves that
a single closed-loop task reproduces the golden fixtures exactly.

**Admission control.**  :class:`AdmissionControl` bounds concurrency the
way a real index server does: at most ``max_inflight`` queries running,
a bounded FIFO wait queue behind them, and arrivals beyond both shed
(counted as rejections).  At the end of a drained run
``completed + rejected == arrived`` holds exactly.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from dataclasses import dataclass

from repro._hot import HOT

__all__ = [
    "Kernel",
    "Resource",
    "Task",
    "AdmissionControl",
    "AdmissionStats",
    "KernelError",
]


class KernelError(RuntimeError):
    """An impossible schedule: past events, deadlock, misuse."""


class _Abort(BaseException):
    """Unwinds a task thread when the kernel aborts (never user-visible)."""


class Resource:
    """A service station: ``lanes`` parallel servers over one FIFO queue.

    ``lanes`` models device-level parallelism — the SSD exposes its NAND
    channel/plane count, the HDD exposes 1 (a single actuator: the queue
    *is* the seek queue), CPU resources expose their core count.
    """

    __slots__ = ("name", "lanes", "queue", "in_service", "served",
                 "busy_us", "peak_depth", "depth_area_us", "_area_t_us")

    def __init__(self, name: str, lanes: int = 1) -> None:
        if lanes < 1:
            raise ValueError(f"resource {name!r} needs >= 1 lane, got {lanes}")
        self.name = name
        self.lanes = lanes
        self.queue: deque = deque()
        self.in_service = 0
        self.served = 0
        self.busy_us = 0.0
        self.peak_depth = 0
        #: Time integral of :attr:`depth` (request-microseconds).  Kept by
        #: the kernel at every depth transition, so ``depth_area_us /
        #: horizon`` is the time-average number in system — an L
        #: measurement *independent* of per-request sojourn records, which
        #: is what makes the Little's-law self-check in
        #: :mod:`repro.obs.blame` a genuine cross-check.
        self.depth_area_us = 0.0
        self._area_t_us = 0.0

    @property
    def depth(self) -> int:
        """Requests currently waiting or in service."""
        return len(self.queue) + self.in_service

    def accrue_depth(self, now_us: float) -> None:
        """Extend the depth-time integral up to ``now_us`` at the current
        depth.  Called by the kernel *before* each depth change (and by
        observers before reading :attr:`depth_area_us`)."""
        if now_us > self._area_t_us:
            self.depth_area_us += self.depth * (now_us - self._area_t_us)
            self._area_t_us = now_us

    def utilization(self, horizon_us: float) -> float:
        """Lane-seconds busy over the horizon (1.0 = all lanes saturated)."""
        if horizon_us <= 0:
            return 0.0
        return min(1.0, self.busy_us / (horizon_us * self.lanes))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Resource({self.name!r}, lanes={self.lanes}, "
                f"depth={self.depth}, served={self.served})")


@dataclass
class _Request:
    task: "Task"
    service_us: float
    charge: bool
    #: When the request joined the resource (queue or lane) — set by
    #: :meth:`Kernel.serve`; ``start_us`` is set when a lane picks it up.
    #: ``start_us - enqueue_us`` is therefore the *exact* queue wait.
    enqueue_us: float = 0.0
    start_us: float = 0.0


class Task:
    """One cooperative unit of work, pausable at any ``clock.consume``.

    Created via :meth:`Kernel.spawn`; the callable runs on a dedicated
    thread that only ever executes while the kernel has handed it
    control.  ``result``/``error`` are populated when ``done``.
    """

    __slots__ = ("kernel", "fn", "name", "done", "result", "error",
                 "thread", "_resume", "_abort", "_joiners", "_done_cbs")

    def __init__(self, kernel: "Kernel", fn, name: str) -> None:
        self.kernel = kernel
        self.fn = fn
        self.name = name
        self.done = False
        self.result = None
        self.error: BaseException | None = None
        self._resume = threading.Event()
        self._abort = False
        self._joiners: list[Task] = []
        self._done_cbs: list = []
        self.thread = threading.Thread(
            target=self._run, name=f"kernel-task-{name}", daemon=True
        )

    def add_done_callback(self, fn) -> None:
        """Run ``fn(task)`` at completion time (on the finishing task's
        context, before the kernel regains control)."""
        if self.done:
            fn(self)
        else:
            self._done_cbs.append(fn)

    def join(self):
        """Block the *calling task* until this task finishes.

        Returns the task's result.  Callable only from inside another
        kernel task (fan-out/merge patterns); once a run has drained,
        read ``result`` directly instead.
        """
        if self.done:
            return self.result
        k = self.kernel
        caller = k._require_current("Task.join")
        if caller is self:
            raise KernelError(f"task {self.name!r} cannot join itself")
        self._joiners.append(caller)
        blame = k.blame
        t0 = k.clock.now_us if blame is not None else 0.0
        k._block(caller)
        if blame is not None:
            blame.on_join(caller, self, t0, k.clock.now_us)
        return self.result

    # -- thread body -------------------------------------------------------

    def _run(self) -> None:
        self._resume.wait()
        self._resume.clear()
        if self._abort:
            return
        k = self.kernel
        try:
            self.result = self.fn()
        except _Abort:
            return
        except BaseException as exc:
            self.error = exc
        self.done = True
        try:
            k._finish(self)
        except _Abort:
            return
        except BaseException as exc:  # a done-callback failed
            if self.error is None:
                self.error = exc
        k._kernel_wake.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done else "pending"
        return f"Task({self.name!r}, {state})"


class Kernel:
    """The event loop: a heap of timed events driving cooperative tasks.

    Binding is automatic: constructing a kernel calls
    ``clock.bind_kernel(self)`` so every device sharing that clock routes
    its :meth:`~repro.sim.clock.VirtualClock.consume` services through
    the kernel whenever they run inside a task.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self._heap: list = []
        self._seq = 0
        self._resources: dict[str, Resource] = {}
        self._current: Task | None = None
        self._kernel_wake = threading.Event()
        self._alive: list[Task] = []
        self._running = False
        #: Optional :class:`~repro.obs.blame.BlameRecorder` (or anything
        #: with its hook methods).  Purely observational: every hook fires
        #: after the schedule is already decided, so attaching one never
        #: changes simulated outcomes.
        self.blame = None
        clock.bind_kernel(self)

    # -- resources ---------------------------------------------------------

    def add_resource(self, name: str, lanes: int = 1) -> Resource:
        """Declare (or re-declare the lane count of) a service resource."""
        res = self._resources.get(name)
        if res is None:
            res = Resource(name, lanes)
            self._resources[name] = res
        else:
            if lanes < 1:
                raise ValueError(f"resource {name!r} needs >= 1 lane")
            res.lanes = lanes
        return res

    def resource(self, name: str) -> Resource:
        """The named resource, auto-created with one lane if unknown."""
        res = self._resources.get(name)
        if res is None:
            res = Resource(name, 1)
            self._resources[name] = res
        return res

    def resources(self) -> tuple[Resource, ...]:
        return tuple(self._resources.values())

    # -- scheduling --------------------------------------------------------

    @property
    def now_us(self) -> float:
        return self.clock.now_us

    def at(self, t_us: float, fn) -> None:
        """Schedule ``fn()`` at absolute time ``t_us``.

        Events in the past are rejected — the monotonicity contract the
        clock enforces on :meth:`~repro.sim.clock.VirtualClock.
        advance_to` applies at scheduling time too, so the bug surfaces
        where it was made.
        """
        if t_us < self.clock.now_us:
            raise KernelError(
                f"event scheduled in the past: t={t_us} < now "
                f"{self.clock.now_us}"
            )
        heapq.heappush(self._heap, (t_us, self._seq, fn))
        self._seq += 1

    def after(self, delay_us: float, fn) -> None:
        """Schedule ``fn()`` ``delay_us`` from now."""
        if delay_us < 0:
            raise KernelError(f"negative delay: {delay_us}")
        self.at(self.clock.now_us + delay_us, fn)

    def spawn(self, fn, name: str = "task", at_us: float | None = None) -> Task:
        """Create a task running ``fn()`` starting at ``at_us`` (now by
        default); returns the :class:`Task` immediately."""
        task = Task(self, fn, name)
        self._alive.append(task)
        if self.blame is not None:
            # Only a live, unfinished task counts as the parent: spawns
            # from admission-control done-callbacks run on the *finishing*
            # task's thread and are roots, not children.
            cur = self._current
            parent = (cur if cur is not None and not cur.done
                      and cur.thread is threading.current_thread() else None)
            self.blame.on_spawn(task, parent, self.clock.now_us)
        task.thread.start()
        self.at(self.clock.now_us if at_us is None else at_us,
                lambda: self._dispatch(task))
        return task

    def in_task(self) -> bool:
        """True when the calling thread is the currently-running task."""
        t = self._current
        return t is not None and t.thread is threading.current_thread()

    # -- blocking primitives (called from task threads) --------------------

    def serve(self, channel: str, service_us: float,
              charge: bool = True) -> None:
        """Queue ``service_us`` of work on ``channel``; blocks the calling
        task until the service completes (FIFO behind earlier requests
        when all lanes are busy)."""
        task = self._require_current("Kernel.serve")
        if service_us < 0:
            raise ValueError(f"negative service time: {service_us}")
        res = self.resource(channel)
        res.accrue_depth(self.clock.now_us)
        req = _Request(task, float(service_us), charge,
                       enqueue_us=self.clock.now_us)
        if res.in_service < res.lanes:
            self._start_service(res, req)
        else:
            res.queue.append(req)
        if res.depth > res.peak_depth:
            res.peak_depth = res.depth
        self._block(task)

    def sleep(self, delay_us: float) -> None:
        """Suspend the calling task for ``delay_us`` of simulated time."""
        task = self._require_current("Kernel.sleep")
        self.after(delay_us, lambda: self._dispatch(task))
        self._block(task)

    # -- engine ------------------------------------------------------------

    def run(self) -> int:
        """Process events until the heap drains; returns events handled.

        Raises the first task error encountered, or :class:`KernelError`
        if the heap drains while tasks are still blocked (deadlock).  On
        any error every live task thread is unwound before re-raising.
        """
        if self._running:
            raise KernelError("kernel is already running")
        if self.in_task():
            raise KernelError("Kernel.run cannot be called from a task")
        self._running = True
        handled = 0
        try:
            while self._heap:
                t_us, _, fn = heapq.heappop(self._heap)
                HOT.kernel_heap_pops += 1
                self.clock.advance_to(t_us)
                fn()
                handled += 1
            if self._alive:
                names = ", ".join(t.name for t in self._alive[:8])
                raise KernelError(
                    f"deadlock: {len(self._alive)} task(s) blocked with no "
                    f"pending events ({names})"
                )
        except BaseException:
            self._abort_all()
            raise
        finally:
            self._running = False
        return handled

    # -- internals ---------------------------------------------------------

    def _require_current(self, op: str) -> Task:
        t = self._current
        if t is None or t.thread is not threading.current_thread():
            raise KernelError(f"{op} must be called from inside a kernel task")
        return t

    def _dispatch(self, task: Task) -> None:
        """Hand control to ``task`` until it blocks or finishes."""
        self._current = task
        task._resume.set()
        self._kernel_wake.wait()
        self._kernel_wake.clear()
        self._current = None
        if task.done and task.error is not None:
            error, task.error = task.error, None
            raise error

    def _block(self, task: Task) -> None:
        """Called on the task thread: yield to the kernel and wait."""
        self._kernel_wake.set()
        task._resume.wait()
        task._resume.clear()
        if task._abort:
            raise _Abort()

    def _start_service(self, res: Resource, req: _Request) -> None:
        res.in_service += 1
        req.start_us = self.clock.now_us
        end_us = self.clock.now_us + req.service_us
        self.at(end_us, lambda: self._complete(res, req))

    def _complete(self, res: Resource, req: _Request) -> None:
        now = self.clock.now_us
        res.accrue_depth(now)
        res.in_service -= 1
        res.served += 1
        res.busy_us += req.service_us
        if req.charge:
            self.clock.charge(res.name, req.service_us)
        if self.blame is not None:
            self.blame.on_serve(req.task, res.name,
                                req.enqueue_us, req.start_us, now)
        if res.queue and res.in_service < res.lanes:
            self._start_service(res, res.queue.popleft())
        self._dispatch(req.task)

    def _finish(self, task: Task) -> None:
        """Completion bookkeeping, run on the finishing task's thread."""
        self._alive.remove(task)
        now = self.clock.now_us
        if self.blame is not None:
            self.blame.on_task_end(task, now)
        for joiner in task._joiners:
            self.at(now, lambda j=joiner: self._dispatch(j))
        task._joiners.clear()
        for cb in task._done_cbs:
            cb(task)
        task._done_cbs.clear()

    def _abort_all(self) -> None:
        """Unwind every live task thread (error/deadlock cleanup)."""
        for task in list(self._alive):
            task._abort = True
            task._resume.set()
        for task in list(self._alive):
            task.thread.join(timeout=5.0)
        self._alive.clear()
        self._heap.clear()
        self._kernel_wake.clear()
        self._current = None


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------

@dataclass
class AdmissionStats:
    """Arrival accounting; after a drained run
    ``completed + rejected == arrived``."""

    arrived: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0


class AdmissionControl:
    """Bounded concurrency in front of a kernel.

    At most ``max_inflight`` jobs run at once; up to ``max_queue`` more
    wait FIFO behind them; anything beyond is shed immediately and
    counted in :attr:`stats.rejected <AdmissionStats.rejected>`.
    """

    def __init__(self, kernel: Kernel, max_inflight: int,
                 max_queue: int = 0) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if max_queue < 0:
            raise ValueError(f"max_queue cannot be negative: {max_queue}")
        self.kernel = kernel
        self.max_inflight = max_inflight
        self.max_queue = max_queue
        self.inflight = 0
        self.peak_depth = 0
        self.stats = AdmissionStats()
        self._waiting: deque = deque()
        self.blame = None

    @property
    def queue_depth(self) -> int:
        """Jobs waiting for an in-flight slot."""
        return len(self._waiting)

    @property
    def depth(self) -> int:
        """Jobs admitted but not finished (waiting + in flight)."""
        return len(self._waiting) + self.inflight

    def submit(self, fn, name: str = "job") -> bool:
        """Admit or shed one job; returns False when shed (rejected)."""
        self.stats.arrived += 1
        arrival = self.kernel.clock.now_us
        if self.inflight < self.max_inflight:
            self._start(fn, name, arrival)
        elif len(self._waiting) < self.max_queue:
            self._waiting.append((fn, name, arrival))
        else:
            self.stats.rejected += 1
            if self.blame is not None:
                self.blame.on_shed(name, arrival)
            return False
        if self.depth > self.peak_depth:
            self.peak_depth = self.depth
        return True

    def _start(self, fn, name: str, arrival_us: float) -> None:
        self.inflight += 1
        self.stats.admitted += 1
        task = self.kernel.spawn(fn, name=name)
        if self.blame is not None:
            self.blame.on_job_start(task, name, arrival_us,
                                    self.kernel.clock.now_us)
        task.add_done_callback(self._job_done)

    def _job_done(self, task: Task) -> None:
        self.inflight -= 1
        self.stats.completed += 1
        if self.blame is not None:
            self.blame.on_job_done(task, self.kernel.clock.now_us)
        if self._waiting and self.inflight < self.max_inflight:
            fn, name, arrival = self._waiting.popleft()
            self._start(fn, name, arrival)

    def check_invariants(self) -> None:
        """Conservation: every arrival is queued, in flight, done or shed."""
        s = self.stats
        accounted = s.completed + s.rejected + self.inflight + len(self._waiting)
        if accounted != s.arrived:
            raise AssertionError(
                f"admission accounting broken: completed {s.completed} + "
                f"rejected {s.rejected} + inflight {self.inflight} + "
                f"waiting {len(self._waiting)} != arrived {s.arrived}"
            )
        if s.admitted != s.completed + self.inflight:
            raise AssertionError(
                f"admitted {s.admitted} != completed {s.completed} + "
                f"inflight {self.inflight}"
            )
