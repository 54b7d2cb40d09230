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
call stack, so a suspended task keeps its stack on an OS thread — but
threads are *worker stacks*, not tasks, and there is no loop thread.
Exactly one thread holds the **baton** at any instant and the holder
*is* the event loop: a task that blocks pops and runs events on its own
thread until one of them dispatches a task.  If that task is its own
(the uncontended case: the completion a task waits for dispatches that
same task) it simply returns — no OS switch.  Otherwise the baton moves
in one hand-off over a pair of raw locks; a task that has not started
yet is adopted by the current thread when its own task has finished,
else started on an idle pooled worker, else on a new one.  Scheduling
is therefore fully deterministic (the event heap orders by ``(time,
sequence)``), the GIL-protected state needs no locks, and the existing
cache/device code runs unchanged inside tasks.

**The yield point.**  Devices do not call the kernel directly.  They
call :meth:`VirtualClock.consume`, which — when the bound kernel names a
current task — hands the service time to :meth:`Kernel.serve`: an I/O
request on the channel's :class:`Resource`, completed by a heap event
that resumes the task.  Outside any task the same call degenerates to
``advance`` + ``charge``, which is byte-for-byte the seed's closed-loop
accounting; `tests/test_core_parity.py` proves that a single closed-loop
task reproduces the golden fixtures exactly.

**An elided event.**  When ``serve`` finds a free lane, nothing queued,
no failure parked and no heap entry due at or before ``end = now +
service_us``, the completion it would push is provably the next event
popped: the heap orders by ``(time, seq)`` and an entry *at* ``end``
would carry a smaller ``seq``; no callback runs between the push and
that pop, so nothing can schedule ahead of it or see the task blocked.
So ``serve`` does the completion's work on the spot — same float
operations in the same order, the clock moved to ``end``, the blame hook
called with no current task as from an event — and returns.  The event
still *happened*: it counts in :meth:`Kernel.run`'s return value and in
``HOT.kernel_heap_pops`` as if it had gone through the heap.  Anything
contended does go through it, so the schedule is the same one, event for
event (`tests/test_sim_kernel_equivalence.py`).

**Admission control.**  :class:`AdmissionControl` bounds concurrency the
way a real index server does: at most ``max_inflight`` queries running,
a bounded FIFO wait queue behind them, and arrivals beyond both shed
(counted as rejections).  At the end of a drained run
``completed + rejected == arrived`` holds exactly.
"""

from __future__ import annotations

import heapq
import threading
from _thread import allocate_lock, get_ident
from collections import deque
from dataclasses import dataclass
from functools import partial

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
    """Unwinds a suspended task stack when a run fails (never user-visible)."""


class _Stack:
    """One OS thread that can hold the baton: the ``run()`` caller or a
    pooled worker.

    ``wake`` is a raw lock used as a binary semaphore: its thread sleeps
    by acquiring it and whoever hands that thread the baton releases it,
    exactly once per sleep.
    """

    __slots__ = ("wake", "ident", "task", "thread")

    def __init__(self) -> None:
        self.wake = allocate_lock()
        self.wake.acquire()
        self.ident = None
        #: The not-yet-started task an idle worker is woken to run; an
        #: idle worker woken without one has been retired.
        self.task: Task | None = None
        self.thread: threading.Thread | None = None


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


class Task:
    """One cooperative unit of work, pausable at any ``clock.consume``.

    Created via :meth:`Kernel.spawn`; the callable runs on a worker
    thread that only ever executes while it holds the kernel's baton.
    ``result``/``error`` are populated when ``done``.
    """

    __slots__ = ("kernel", "fn", "name", "done", "result", "error",
                 "_host", "_joiners", "_done_cbs")

    def __init__(self, kernel: "Kernel", fn, name: str) -> None:
        self.kernel = kernel
        self.fn = fn
        self.name = name
        self.done = False
        self.result = None
        self.error: BaseException | None = None
        #: The worker whose thread holds this task's stack, from its
        #: first dispatch until it finishes.
        self._host: _Stack | None = None
        self._joiners: list[Task] = []
        self._done_cbs: list = []

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
        t0 = k.clock._now_us if blame is not None else 0.0
        k._block(caller)
        if blame is not None:
            blame.on_join(caller, self, t0, k.clock._now_us)
        return self.result

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
        #: Spawned and not finished: an ordered set (spawn order, O(1) removal).
        self._alive: dict[Task, None] = {}
        self._running = False
        self._handled = 0
        #: The first exception of a run, parked by whichever thread hit it
        #: until the baton is back with the ``run()`` caller, which
        #: re-raises it.  While set, nothing pumps events.
        self._failure: BaseException | None = None
        self._driver = _Stack()
        self._workers: list[_Stack] = []
        self._idle: list[_Stack] = []
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
        if not t_us >= self.clock._now_us:  # a NaN is in the past too
            raise KernelError(
                f"event scheduled in the past: t={t_us} < now "
                f"{self.clock._now_us}"
            )
        heapq.heappush(self._heap, (t_us, self._seq, fn))
        self._seq += 1

    def after(self, delay_us: float, fn) -> None:
        """Schedule ``fn()`` ``delay_us`` from now."""
        if not delay_us >= 0:
            raise KernelError(f"negative delay: {delay_us}")
        self.at(self.clock._now_us + delay_us, fn)

    def spawn(self, fn, name: str = "task", at_us: float | None = None) -> Task:
        """Create a task running ``fn()`` starting at ``at_us`` (now by
        default); returns the :class:`Task` immediately."""
        task = Task(self, fn, name)
        # Scheduled first: a start time in the past raises before the
        # task is registered anywhere.
        self.at(self.clock._now_us if at_us is None else at_us,
                partial(self._dispatch, task))
        self._alive[task] = None
        if self.blame is not None:
            # Only a live, unfinished task counts as the parent.  Event
            # callbacks run with no current task and admission-control
            # done-callbacks run in the *finishing* task's context, so
            # the jobs they spawn are roots, not children.
            cur = self._current
            parent = cur if cur is not None and not cur.done else None
            self.blame.on_spawn(task, parent, self.clock._now_us)
        return task

    def in_task(self) -> bool:
        """True when the calling thread is the currently-running task."""
        return self._here() is not None

    # -- blocking primitives (called from task threads) --------------------

    def serve(self, channel: str, service_us: float,
              charge: bool = True) -> None:
        """Queue ``service_us`` of work on ``channel``; blocks the calling
        task until the service completes (FIFO behind earlier requests
        when all lanes are busy)."""
        task = self._current
        host = task and task._host
        if not host or host.ident != get_ident():
            raise KernelError(
                "Kernel.serve must be called from inside a kernel task")
        if not service_us >= 0:  # negative, or NaN
            raise ValueError(f"negative service time: {service_us}")
        service_us = float(service_us)
        try:
            res = self._resources[channel]
        except KeyError:
            res = self.resource(channel)
        clock = self.clock
        now = clock._now_us
        end = now + service_us
        heap = self._heap
        depth = res.in_service
        if (depth >= res.lanes or res.queue or self._failure is not None
                or (heap and heap[0][0] <= end)):  # a tie pops first
            res.accrue_depth(now)
            req = (task, service_us, charge, now)
            if depth < res.lanes:
                self._start_service(res, req)
            else:
                res.queue.append(req)
            if res.depth > res.peak_depth:
                res.peak_depth = res.depth
            self._block(task)
            return
        # An elided event (module docstring): accrue_depth at ``now`` and at
        # ``end``, then _complete's float operations in _complete's order.
        area_t = res._area_t_us
        if now > area_t:
            res.depth_area_us += depth * (now - area_t)
            area_t = now
        depth += 1
        if depth > res.peak_depth:
            res.peak_depth = depth
        if end > area_t:
            res.depth_area_us += depth * (end - area_t)
            area_t = end
        res._area_t_us = area_t
        res.served += 1
        res.busy_us += service_us
        if charge:
            busy = clock._busy_us
            busy[channel] = busy.get(channel, 0.0) + service_us
        clock._now_us = end
        self._handled += 1
        if self.blame is not None:
            self._current = None  # what a completion event's hook sees
            self.blame.on_serve(task, channel, now, now, end)
            self._current = task

    def sleep(self, delay_us: float) -> None:
        """Suspend the calling task for ``delay_us`` of simulated time."""
        task = self._require_current("Kernel.sleep")
        self.after(delay_us, partial(self._dispatch, task))
        self._block(task)

    # -- engine ------------------------------------------------------------

    def run(self) -> int:
        """Process events until the heap drains; returns events handled.

        Raises the first task error encountered, or :class:`KernelError`
        if the heap drains while tasks are still blocked (deadlock).  On
        any error every suspended task stack is unwound before re-raising;
        either way no worker thread outlives the call.
        """
        if self._running:
            raise KernelError("kernel is already running")
        if self.in_task():
            raise KernelError("Kernel.run cannot be called from a task")
        self._running = True
        self._handled = 0
        try:
            try:
                self._pump(self._driver, None)
            except BaseException as exc:  # raised on this thread itself
                self._park(exc)
            if self._failure is None and self._alive:
                names = ", ".join(t.name for t in list(self._alive)[:8])
                self._failure = KernelError(
                    f"deadlock: {len(self._alive)} task(s) blocked with no "
                    f"pending events ({names})"
                )
            if self._failure is not None:
                self._unwind()
                raise self._failure
            return self._handled
        finally:
            # Once per run: every reader takes a delta around whole runs.
            HOT.kernel_heap_pops += self._handled
            self._retire()
            self._failure = None
            self._running = False

    # -- internals ---------------------------------------------------------

    def _here(self) -> Task | None:
        """The running task, if the calling thread is the one hosting it."""
        t = self._current
        if t is not None:
            host = t._host
            if host is not None and host.ident == get_ident():
                return t
        return None

    def _require_current(self, op: str) -> Task:
        t = self._here()
        if t is None:
            raise KernelError(f"{op} must be called from inside a kernel task")
        return t

    def _dispatch(self, task: Task) -> None:
        """Name ``task`` as the next to run.  Always an event's last act:
        the thread pumping that event makes the switch once it returns."""
        self._current = task

    def _block(self, task: Task) -> None:
        """Called on the task's own thread: give up control by becoming
        the event loop until an event dispatches ``task`` again."""
        self._current = None
        self._pump(task._host, task)

    def _park(self, exc: BaseException) -> None:
        if self._failure is None:
            self._failure = exc

    def _pump(self, me: _Stack, mine: Task | None) -> Task | None:
        """Hold the baton: pop and run events on the calling thread.

        ``mine`` is the task suspended on this stack — ``None`` on the
        driver and on a worker whose task has finished.  With a ``mine``,
        returns once an event dispatches it, or raises :class:`_Abort`
        when the run has failed.  A worker without one returns the
        not-yet-started task it adopts, or ``None`` after going idle.
        The driver returns when the heap is empty or a failure is parked.

        Event callbacks run here with no current task.  An event that
        dispatches another task moves the baton: a stack that holds a
        suspended task never starts a second one (the lower task could
        not resume until the upper one finished) and the driver never
        hosts one, so a fresh task goes to an idle worker or a new one.
        """
        heap = self._heap
        clock = self.clock
        driver = self._driver
        heappop = heapq.heappop
        # A worker whose task has finished may adopt a task or go idle.
        free = mine is None and me is not driver
        while True:
            if self._failure is not None:
                if mine is not None:
                    raise _Abort()
                to = driver
            elif heap:
                t_us, _, fn = heappop(heap)
                try:
                    if t_us > clock._now_us:
                        clock._now_us = float(t_us)
                    elif t_us < clock._now_us:
                        clock.advance_to(t_us)  # raises: time ran past it
                    fn()
                except BaseException as exc:
                    self._park(exc)
                    continue
                self._handled += 1
                nxt = self._current
                if nxt is None:
                    continue
                if nxt is mine:
                    return None
                to = nxt._host
                if to is None:  # not started yet
                    if free:
                        return nxt
                    to = self._idle.pop() if self._idle else self._new_worker()
                    to.task = nxt
            else:
                # Drained, or deadlocked: the driver tells which.
                to = driver
            if to is me:
                return None
            if free:
                self._idle.append(me)
                to.wake.release()
                return None
            to.wake.release()
            try:
                me.wake.acquire()
            except BaseException as exc:
                # Only a signal on the main thread (Ctrl-C) lands here, and
                # only the driver can be the main thread.  A worker holds
                # the baton: stop the run and wait for it to come back.
                self._park(exc)
                me.wake.acquire()
            if mine is not None and self._failure is None:
                # A suspended stack is woken by its own task's dispatch,
                # or by the driver to unwind.
                return None

    def _new_worker(self) -> _Stack:
        w = _Stack()
        w.thread = threading.Thread(
            target=self._work, args=(w,),
            name=f"kernel-worker-{len(self._workers)}", daemon=True,
        )
        w.thread.start()
        self._workers.append(w)
        return w

    def _work(self, me: _Stack) -> None:
        """Worker thread body: host the tasks handed to ``me`` until
        retired.  The thread exits nowhere else — it cannot die holding
        the baton."""
        me.ident = get_ident()
        while True:
            me.wake.acquire()
            task, me.task = me.task, None
            if task is None:
                return
            try:
                while task is not None:
                    self._run_task(me, task)
                    task = self._pump(me, None)
            except BaseException as exc:
                # A kernel bug: parked, it fails run() instead of hanging it.
                self._park(exc)
                self._idle.append(me)
                self._driver.wake.release()

    def _run_task(self, me: _Stack, task: Task) -> None:
        """Run the just-dispatched ``task`` on ``me`` until it finishes,
        or until a failed run unwinds it (the pump that follows then
        finds the failure and hands the baton to the driver)."""
        task._host = me
        try:
            try:
                task.result = task.fn()
            except _Abort:
                return
            except BaseException as exc:
                task.error = exc
            task.done = True
            self._finish(task)
        except _Abort:
            return
        except BaseException as exc:  # a done-callback failed
            if task.error is None:
                task.error = exc
        finally:
            task._host = None
            self._current = None
            if task.error is not None:
                self._park(task.error)

    def _start_service(self, res: Resource, req: tuple) -> None:
        """A lane takes ``req``: ``(task, service_us, charge, enqueue_us)``."""
        res.in_service += 1
        now = self.clock._now_us
        self.at(now + req[1], partial(self._complete, res, req, now))

    def _complete(self, res: Resource, req: tuple, start_us: float) -> None:
        task, service_us, charge, enqueue_us = req
        now = self.clock._now_us
        res.accrue_depth(now)
        res.in_service -= 1
        res.served += 1
        res.busy_us += service_us
        if charge:
            self.clock.charge(res.name, service_us)
        if self.blame is not None:
            self.blame.on_serve(task, res.name, enqueue_us, start_us, now)
        if res.queue and res.in_service < res.lanes:
            self._start_service(res, res.queue.popleft())
        self._dispatch(task)

    def _finish(self, task: Task) -> None:
        """Completion bookkeeping, run on the finishing task's thread."""
        del self._alive[task]
        now = self.clock._now_us
        if self.blame is not None:
            self.blame.on_task_end(task, now)
        for joiner in task._joiners:
            self.at(now, partial(self._dispatch, joiner))
        task._joiners.clear()
        for cb in task._done_cbs:
            cb(task)
        task._done_cbs.clear()

    def _unwind(self) -> None:
        """On the driver, a failure parked: unwind every suspended stack,
        one at a time, and drop what was still scheduled."""
        for w in self._workers:
            if w not in self._idle:
                w.wake.release()  # its pump sees the failure: _Abort
                self._driver.wake.acquire()  # unwound, it hands back
        self._alive.clear()
        self._heap.clear()
        self._current = None

    def _retire(self) -> None:
        """On the driver, every worker idle: let each exit, and join it."""
        for w in self._workers:
            w.wake.release()
        for w in self._workers:
            w.thread.join()
        self._workers.clear()
        self._idle.clear()


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
        arrival = self.kernel.clock._now_us
        if self.inflight < self.max_inflight:
            self._start(fn, name, arrival)
        elif len(self._waiting) < self.max_queue:
            self._waiting.append((fn, name, arrival))
        else:
            self.stats.rejected += 1
            if self.blame is not None:
                self.blame.on_shed(name, arrival)
            return False
        depth = len(self._waiting) + self.inflight
        if depth > self.peak_depth:
            self.peak_depth = depth
        return True

    def _start(self, fn, name: str, arrival_us: float) -> None:
        self.inflight += 1
        self.stats.admitted += 1
        task = self.kernel.spawn(fn, name=name)
        if self.blame is not None:
            self.blame.on_job_start(task, name, arrival_us,
                                    self.kernel.clock._now_us)
        task.add_done_callback(self._job_done)

    def _job_done(self, task: Task) -> None:
        self.inflight -= 1
        self.stats.completed += 1
        if self.blame is not None:
            self.blame.on_job_done(task, self.kernel.clock._now_us)
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
