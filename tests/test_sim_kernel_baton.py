"""Baton passing: how many OS threads a run costs, that none outlive it,
and who an event callback is attributed to now that it runs on whichever
task's thread happens to be pumping."""

import signal
import threading

import pytest

from repro.obs.blame import BlameRecorder
from repro.sim.clock import VirtualClock
from repro.sim.kernel import AdmissionControl, Kernel, KernelError


def fresh_kernel():
    return Kernel(VirtualClock())


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    started = []
    real_start = threading.Thread.start

    def counting_start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def submit_jobs(k, admission, n, gap_us, serves=3):
    """``n`` arrivals ``gap_us`` apart, each job ``serves`` 10us services."""
    def job():
        for _ in range(serves):
            k.serve("dev", 10.0)

    for i in range(n):
        k.at(i * gap_us, lambda i=i: admission.submit(job, name=f"j{i}"))


# -- thread economy ------------------------------------------------------------

def test_one_in_flight_costs_one_thread(thread_starts):
    k = fresh_kernel()
    admission = AdmissionControl(k, max_inflight=1, max_queue=200)
    submit_jobs(k, admission, 200, gap_us=100.0)
    k.run()
    assert admission.stats.completed == 200
    assert len(thread_starts) == 1


def test_threads_grow_to_peak_inflight_not_to_jobs(thread_starts):
    k = fresh_kernel()
    k.add_resource("dev", lanes=2)
    admission = AdmissionControl(k, max_inflight=8, max_queue=200)
    submit_jobs(k, admission, 200, gap_us=1.0)  # arrivals outrun service
    k.run()
    assert admission.stats.completed == 200
    assert admission.peak_depth > 8  # all eight slots were in use
    assert 2 <= len(thread_starts) <= 8


# -- no thread outlives run() --------------------------------------------------

def _drains(k):
    admission = AdmissionControl(k, max_inflight=4, max_queue=50)
    submit_jobs(k, admission, 40, gap_us=5.0)
    return None


def _task_error(k):
    def boom():
        k.serve("dev", 1.0)
        raise ValueError("broken task")

    k.spawn(boom, name="boom")
    for i in range(3):
        k.spawn(lambda: k.serve("dev", 100.0), name=f"bystander{i}")
    return ValueError


def _done_callback_error(k):
    def bad_callback(task):
        raise ValueError("broken callback")

    k.spawn(lambda: k.serve("dev", 1.0), name="t").add_done_callback(
        bad_callback)
    k.spawn(lambda: k.serve("dev", 100.0), name="bystander")
    return ValueError


def _event_callback_error_on_a_task_thread(k):
    driver = threading.get_ident()

    def bad_event():
        assert threading.get_ident() != driver  # a blocked task is pumping
        raise ValueError("broken event")

    for i in range(3):
        k.spawn(lambda: k.serve("dev", 100.0), name=f"t{i}")
    k.at(50.0, bad_event)
    return ValueError


def _mutual_join(k):
    tasks = {}
    tasks["a"] = k.spawn(lambda: tasks["b"].join(), name="a")
    tasks["b"] = k.spawn(lambda: tasks["a"].join(), name="b")
    return KernelError


@pytest.mark.parametrize("scenario", [
    _drains, _task_error, _done_callback_error,
    _event_callback_error_on_a_task_thread, _mutual_join,
], ids=lambda fn: fn.__name__.strip("_"))
def test_no_thread_outlives_run(scenario):
    before = threading.active_count()
    k = fresh_kernel()
    raises = scenario(k)
    if raises is None:
        assert k.run() > 0
    else:
        with pytest.raises(raises):
            k.run()
    assert threading.active_count() == before
    assert not k._alive
    # The kernel is reusable after either outcome (resources aside: an
    # aborted run leaves its requests queued on them).
    k.spawn(lambda: k.sleep(1.0), name="again")
    assert k.run() == 2
    assert threading.active_count() == before


@pytest.mark.parametrize("failing_start", [1, 2])
def test_thread_exhaustion_fails_the_run(monkeypatch, failing_start):
    """The first worker is started by the driver, the second by a task
    thread pumping inside ``serve``; neither failure may hang ``run()``."""
    before = threading.active_count()
    real_start = threading.Thread.start
    starts = []

    def failing(self):
        starts.append(self)
        if len(starts) == failing_start:
            raise RuntimeError("can't start new thread")
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", failing)
    k = fresh_kernel()
    for i in range(2):
        k.spawn(lambda: k.serve("dev", 10.0), name=f"t{i}")
    with pytest.raises(RuntimeError, match="can't start new thread"):
        k.run()
    assert len(starts) == failing_start
    assert threading.active_count() == before


def test_a_kernel_bug_on_a_worker_fails_the_run(monkeypatch):
    """A worker cannot die with the baton: whatever escapes its loop is
    parked and re-raised by ``run()``."""
    before = threading.active_count()
    real_pump = Kernel._pump

    def buggy_pump(self, me, mine):
        if mine is None and me is not self._driver:
            raise AssertionError("kernel bug")
        return real_pump(self, me, mine)

    monkeypatch.setattr(Kernel, "_pump", buggy_pump)
    k = fresh_kernel()
    k.spawn(lambda: k.serve("dev", 10.0), name="t")
    with pytest.raises(AssertionError, match="kernel bug"):
        k.run()
    assert threading.active_count() == before


def test_sigint_stops_the_run_at_the_next_yield_point():
    """Ctrl-C reaches the driver while it sleeps and a worker holds the
    baton; the run must stop promptly, not at the end of the simulation."""
    if threading.current_thread() is not threading.main_thread():
        pytest.skip("signals are delivered to the main thread")
    before = threading.active_count()
    k = fresh_kernel()
    served = []

    def body():
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        for i in range(1_000_000):
            k.serve("dev", 1.0)
            served.append(i)

    k.spawn(body, name="long")
    # A process started with SIGINT ignored (a shell's background job)
    # has no handler installed; the test brings its own.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            k.run()
    finally:
        signal.signal(signal.SIGINT, previous)
    assert len(served) < 1_000_000
    assert threading.active_count() == before
    # Nothing else was ever due, so every one of those serves completed
    # inline — except the first after the interrupt was parked, which
    # took the heap so that the task reached the pump and was unwound.
    assert k._seq == 2  # the spawn, and that one


class _LateSignalWake:
    """The driver's wake lock, with a Ctrl-C whose handler runs just after
    the driver's sleep took the hand-off (as a signal that lands before
    the acquire blocks does).  An untimed sleep that outlasts
    ``STUCK_S`` is recorded instead of hanging the test."""

    STUCK_S = 5.0

    def __init__(self, lock):
        self.lock = lock
        self.armed = True
        self.stuck = False

    def acquire(self, blocking=True, timeout=-1):
        if blocking and timeout < 0:
            got = self.lock.acquire(timeout=self.STUCK_S)
            self.stuck |= not got
        else:
            got = self.lock.acquire(blocking, timeout)
        if got and self.armed:
            self.armed = False
            signal.getsignal(signal.SIGINT)(signal.SIGINT, None)
        return got

    def release(self):
        self.lock.release()


def test_ctrl_c_handled_after_the_driver_woke_does_not_hang_it():
    """The hand-off is taken when the interrupt shows: the driver must
    not sleep again on the wake-up it already used."""
    if threading.current_thread() is not threading.main_thread():
        pytest.skip("signals are delivered to the main thread")
    before = threading.active_count()
    k = fresh_kernel()
    k.spawn(lambda: [k.serve("dev", 1.0) for _ in range(3)], name="t")
    wake = k._driver.wake = _LateSignalWake(k._driver.wake)
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            k.run()
    finally:
        signal.signal(signal.SIGINT, previous)
    assert not wake.armed and not wake.stuck
    assert threading.active_count() == before
    assert signal.getsignal(signal.SIGINT) is previous


def test_a_parked_failure_stops_inline_serves_at_the_next_one():
    """The same stop, made deterministic: the failure is parked (as the
    interrupted driver parks it) between two serves nothing contends."""
    before = threading.active_count()
    k = fresh_kernel()
    served = []

    def body():
        for i in range(10):
            if i == 5:
                k._park(KeyboardInterrupt())
            k.serve("dev", 1.0)
            served.append(i)

    k.spawn(body, name="long")
    with pytest.raises(KeyboardInterrupt):
        k.run()
    assert served == [0, 1, 2, 3, 4]
    assert k.now_us == 5.0  # the sixth service never completed
    assert threading.active_count() == before


# -- spawn validates before it registers -----------------------------------

def test_spawn_in_the_past_registers_nothing(thread_starts):
    k = fresh_kernel()
    k.clock.advance(10.0)
    with pytest.raises(KernelError, match="in the past"):
        k.spawn(lambda: None, name="late", at_us=5.0)
    assert not k._alive
    assert thread_starts == []
    assert k.run() == 0


# -- attribution of callbacks that run on a task's thread ---------------------

def test_callback_on_a_blocked_tasks_thread_is_not_that_task():
    clock = VirtualClock()
    k = Kernel(clock)
    admission = AdmissionControl(k, max_inflight=4)
    blame = BlameRecorder().attach(k, admission)
    seen = {}

    def shard():
        k.serve("ssd", 5.0)

    def job():
        blame.tag_current(who="job")
        # The cluster broker's fan-out: children spawned by a live task.
        for child in [k.spawn(shard, name=f"shard{i}") for i in range(2)]:
            child.join()

    def arrival():
        seen["arrival_thread"] = threading.get_ident()
        seen["in_task"] = k.in_task()
        seen["current"] = k._current
        clock.consume("admit", 2.0)
        admission.submit(job, name="job")

    def blocked():
        seen["blocked_thread"] = threading.get_ident()
        k.serve("hdd", 100.0)  # the arrival fires while this is blocked
        blame.tag_current(who="blocked")

    k.spawn(blocked, name="blocked")
    k.at(50.0, arrival)
    k.run()

    # The premise: the blocked task's own thread ran the arrival event...
    assert seen["arrival_thread"] == seen["blocked_thread"]
    assert seen["arrival_thread"] != threading.get_ident()
    # ...but not as that task: no current task, so consume took the
    # closed-loop branch (clock advanced in place, no resource queued).
    assert seen["in_task"] is False and seen["current"] is None
    assert clock.busy_us("admit") == 2.0
    assert "admit" not in {r.name for r in k.resources()}

    tasks = {r["name"]: r for r in blame.records if r["type"] == "task"}
    assert tasks["job"]["parent"] is None  # a root, not blocked's child
    assert tasks["job"]["start_us"] == 52.0
    assert tasks["shard0"]["parent"] == tasks["job"]["task"]
    assert tasks["shard1"]["parent"] == tasks["job"]["task"]
    assert tasks["job"]["who"] == "job"
    assert tasks["blocked"]["who"] == "blocked"
    assert "who" not in tasks["shard0"]


def test_the_serve_hook_sees_the_same_kernel_inline_and_from_the_heap():
    """An observer cannot tell an elided completion from a popped one:
    clock at the end of service, no current task, the lane released."""
    k = fresh_kernel()
    seen = []

    class Hook(BlameRecorder):
        def on_serve(self, task, resource, enqueue_us, start_us, end_us):
            res = k.resource(resource)
            seen.append((k._seq, k._current, k.now_us == end_us,
                         res.in_service, res.served))

    Hook().attach(k)

    def body():
        k.serve("dev", 1.0)           # nothing else due: inline
        k.at(k.now_us + 0.5, lambda: None)
        k.serve("dev", 1.0)           # an event falls inside: the heap

    k.spawn(body, name="t")
    k.run()
    # (heap entries pushed so far, current task, clock, in service, served)
    assert seen == [(1, None, True, 0, 1), (3, None, True, 0, 2)]
