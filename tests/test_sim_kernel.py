"""Discrete-event kernel: scheduling, lanes, joins, admission, queueing laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.clock import VirtualClock
from repro.sim.kernel import AdmissionControl, Kernel, KernelError, Resource
from repro.sim.queueing import mm1_mean_wait_us, simulate_fifo_queue
from repro.sim.rng import make_rng


def fresh_kernel():
    return Kernel(VirtualClock())


# -- resources ---------------------------------------------------------------

def test_resource_validation():
    with pytest.raises(ValueError):
        Resource("x", lanes=0)
    with pytest.raises(ValueError):
        fresh_kernel().add_resource("x", lanes=0)


def test_add_resource_redeclares_lanes():
    k = fresh_kernel()
    res = k.add_resource("ssd", lanes=2)
    assert k.add_resource("ssd", lanes=4) is res
    assert res.lanes == 4
    # resource() auto-creates with one lane.
    assert k.resource("hdd").lanes == 1


def test_utilization_is_lane_normalised():
    res = Resource("ssd", lanes=2)
    res.busy_us = 50.0
    assert res.utilization(100.0) == pytest.approx(0.25)
    assert res.utilization(0.0) == 0.0
    # A degenerate (negative) horizon reports idle, not a nonsense ratio.
    assert res.utilization(-10.0) == 0.0


def test_depth_area_integrates_queue_occupancy():
    """FIFO burst of three 10us jobs: depth steps 3 -> 2 -> 1, so the
    depth-time integral is 30 + 20 + 10 = 60 exactly."""
    k = fresh_kernel()
    for name in ("a", "b", "c"):
        k.spawn(lambda: k.serve("dev", 10.0), name=name)
    k.run()
    res = k.resource("dev")
    res.accrue_depth(k.clock.now_us)
    assert res.depth_area_us == pytest.approx(60.0)
    # Accruing again without time passing adds nothing.
    res.accrue_depth(k.clock.now_us)
    assert res.depth_area_us == pytest.approx(60.0)


# -- scheduling and service --------------------------------------------------

def test_single_lane_is_fifo():
    k = fresh_kernel()
    ends = {}
    for name in ("a", "b", "c"):
        def body(n=name):
            k.serve("dev", 10.0)
            ends[n] = k.now_us
        k.spawn(body, name=name)
    k.run()
    assert ends == {"a": 10.0, "b": 20.0, "c": 30.0}
    res = k.resource("dev")
    assert res.served == 3
    assert res.peak_depth == 3
    assert res.depth == 0


def test_lanes_serve_in_parallel():
    k = fresh_kernel()
    k.add_resource("dev", lanes=2)
    ends = []
    for i in range(3):
        def body():
            k.serve("dev", 10.0)
            ends.append(k.now_us)
        k.spawn(body, name=f"t{i}")
    k.run()
    # Two proceed together; the third waits for a free lane.
    assert ends == [10.0, 10.0, 20.0]


def test_deterministic_replay():
    def script():
        k = fresh_kernel()
        trace = []
        for i, service in enumerate((7.0, 3.0, 5.0)):
            def body(i=i, s=service):
                k.serve("dev", s)
                trace.append((i, k.now_us))
            k.spawn(body, name=f"t{i}")
        k.run()
        return trace

    assert script() == script()


def test_serve_charges_clock_at_completion():
    clock = VirtualClock()
    k = Kernel(clock)
    k.spawn(lambda: clock.consume("ssd", 25.0), name="io")
    k.spawn(lambda: clock.consume("cpu", 5.0, charge=False), name="cpu")
    k.run()
    assert clock.busy_us("ssd") == pytest.approx(25.0)
    assert clock.busy_us("cpu") == 0.0  # charge=False: time passes unattributed


def test_sleep_advances_only_the_sleeper():
    k = fresh_kernel()
    wake = []
    k.spawn(lambda: (k.sleep(40.0), wake.append(k.now_us)), name="sleeper")
    k.run()
    assert wake == [40.0]


def test_past_event_rejected():
    k = fresh_kernel()
    k.clock.advance(10.0)
    with pytest.raises(KernelError):
        k.at(5.0, lambda: None)
    with pytest.raises(KernelError):
        k.after(-1.0, lambda: None)


@pytest.mark.parametrize("poison, error", [
    (lambda k: k.clock.consume("dev", float("nan")), ValueError),
    (lambda k: k.serve("dev", float("nan")), ValueError),
    (lambda k: k.sleep(float("nan")), KernelError),
    (lambda k: k.at(float("nan"), lambda: None), KernelError),
    (lambda k: k.after(float("nan"), lambda: None), KernelError),
    (lambda k: k.clock.advance(float("nan")), ValueError),
    (lambda k: k.clock.charge("dev", float("nan")), ValueError),
], ids=["consume", "serve", "sleep", "at", "after", "advance", "charge"])
def test_nan_inside_a_task_fails_the_run_where_it_was_made(poison, error):
    # ``nan < 0`` is false: the old guards let it through, the run
    # returned normally and left now_us and busy_us("dev") as nan.
    k = fresh_kernel()
    seen = []

    def body():
        k.serve("dev", 5.0)
        try:
            poison(k)
        finally:
            seen.append((k.now_us, k.clock.busy_us("dev")))
        k.serve("dev", 5.0)

    k.spawn(body, name="poisoned")
    with pytest.raises(error):
        k.run()
    assert seen == [(5.0, 5.0)]
    assert k.now_us == 5.0 and k.resource("dev").busy_us == 5.0


def test_serve_outside_task_rejected():
    k = fresh_kernel()
    with pytest.raises(KernelError):
        k.serve("dev", 1.0)
    with pytest.raises(KernelError):
        k.sleep(1.0)


def test_consume_outside_task_falls_back_to_closed_loop():
    clock = VirtualClock()
    Kernel(clock)  # bound, but the call below is not inside a task
    clock.consume("ssd", 12.0)
    assert clock.now_us == 12.0
    assert clock.busy_us("ssd") == 12.0


def test_join_fans_in_at_slowest_subtask():
    k = fresh_kernel()
    done = []

    def parent():
        subs = [k.spawn(lambda s=s: k.serve(f"dev{s}", s), name=f"s{s}")
                for s in (30.0, 10.0)]
        for t in subs:
            t.join()
        done.append(k.now_us)

    k.spawn(parent, name="parent")
    k.run()
    assert done == [30.0]


def test_join_finished_task_returns_result():
    k = fresh_kernel()
    got = []

    def parent():
        t = k.spawn(lambda: 42, name="quick")
        k.sleep(5.0)  # let the subtask finish first
        got.append(t.join())

    k.spawn(parent, name="parent")
    k.run()
    assert got == [42]


def test_mutual_join_deadlock_raises():
    k = fresh_kernel()
    tasks = {}

    def a():
        tasks["b"].join()

    def b():
        tasks["a"].join()

    tasks["a"] = k.spawn(a, name="a")
    tasks["b"] = k.spawn(b, name="b")
    with pytest.raises(KernelError, match="deadlock"):
        k.run()


def test_deadlock_names_the_first_eight_tasks_in_spawn_order():
    k = fresh_kernel()
    tasks = []
    # Each joins its successor, the last joins the first; the middle
    # ones finish nothing either, and two that do finish are not named.
    k.spawn(lambda: None, name="done-early")
    for i in range(10):
        tasks.append(k.spawn(lambda i=i: tasks[(i + 1) % 10].join(),
                             name=f"stuck{i}"))
    k.spawn(lambda: k.serve("dev", 1.0), name="done-late")
    with pytest.raises(KernelError) as err:
        k.run()
    assert str(err.value) == (
        "deadlock: 10 task(s) blocked with no pending events ("
        + ", ".join(f"stuck{i}" for i in range(8)) + ")")


def test_task_error_propagates_and_unwinds():
    k = fresh_kernel()

    def boom():
        k.serve("dev", 1.0)
        raise ValueError("broken task")

    k.spawn(boom, name="boom")
    k.spawn(lambda: k.serve("dev", 100.0), name="bystander")
    with pytest.raises(ValueError, match="broken task"):
        k.run()
    # The bystander thread was unwound; a fresh run is possible.
    assert not k._alive


# -- admission control -------------------------------------------------------

def test_admission_sheds_beyond_queue():
    k = fresh_kernel()
    admission = AdmissionControl(k, max_inflight=1, max_queue=1)
    outcomes = [admission.submit(lambda: k.serve("dev", 10.0), name=f"j{i}")
                for i in range(3)]
    assert outcomes == [True, True, False]
    admission.check_invariants()
    k.run()
    admission.check_invariants()
    s = admission.stats
    assert (s.arrived, s.admitted, s.completed, s.rejected) == (3, 2, 2, 1)
    assert admission.inflight == 0
    assert admission.queue_depth == 0
    assert admission.peak_depth == 2


def test_admission_validation():
    k = fresh_kernel()
    with pytest.raises(ValueError):
        AdmissionControl(k, max_inflight=0)
    with pytest.raises(ValueError):
        AdmissionControl(k, max_inflight=1, max_queue=-1)


@settings(max_examples=25, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=30.0),
                  st.floats(min_value=0.1, max_value=40.0)),
        min_size=1, max_size=25,
    ),
    max_inflight=st.integers(min_value=1, max_value=4),
    max_queue=st.integers(min_value=0, max_value=4),
)
def test_admission_conserves_every_arrival(jobs, max_inflight, max_queue):
    """Property: after a drained run, completed + rejected == arrived."""
    k = fresh_kernel()
    admission = AdmissionControl(k, max_inflight=max_inflight,
                                 max_queue=max_queue)
    t = 0.0
    for i, (gap, service) in enumerate(jobs):
        t += gap

        def job(s=service):
            k.serve("dev", s)

        k.at(t, lambda fn=job, i=i: admission.submit(fn, name=f"j{i}"))
    k.run()
    admission.check_invariants()
    s = admission.stats
    assert s.arrived == len(jobs)
    assert s.completed + s.rejected == s.arrived
    assert admission.inflight == 0 and admission.queue_depth == 0


# -- queueing-theory validation ----------------------------------------------

def test_kernel_reproduces_fifo_reference_exactly():
    """Same arrival and service draws -> the kernel's single-lane timeline
    is the post-hoc FIFO model's timeline, not just statistically close."""
    n, rate_qps, seed = 300, 3000.0, 9
    service = make_rng(11).exponential(250.0, size=n)
    ref = simulate_fifo_queue(service, rate_qps, seed=seed)
    # Replicate the reference's internal arrival draws.
    arrivals = np.cumsum(make_rng(seed).exponential(1e6 / rate_qps, size=n))

    clock = VirtualClock()
    k = Kernel(clock)
    responses = []
    waits = []
    for i in range(n):
        def body(a=float(arrivals[i]), s=float(service[i])):
            k.serve("dev", s)
            responses.append(clock.now_us - a)
            waits.append(clock.now_us - a - s)  # queueing happens inside serve

        k.at(float(arrivals[i]),
             lambda fn=body, i=i: k.spawn(fn, name=f"q{i}"))
    k.run()

    assert len(responses) == ref.completed
    assert np.mean(responses) == pytest.approx(ref.mean_response_us, rel=1e-9)
    assert np.mean(waits) == pytest.approx(ref.mean_wait_us, rel=1e-9)


def test_kernel_mean_wait_matches_mm1():
    """M/M/1 at rho=0.7: the emergent mean wait lands on Wq = rho/(mu-lam)."""
    n, mean_service, rho = 6000, 100.0, 0.7
    rate_qps = rho * 1e6 / mean_service
    rng = make_rng(42)
    arrivals = np.cumsum(rng.exponential(mean_service / rho, size=n))
    services = rng.exponential(mean_service, size=n)

    clock = VirtualClock()
    k = Kernel(clock)
    waits = []
    for i in range(n):
        def body(a=float(arrivals[i]), s=float(services[i])):
            k.serve("dev", s)
            waits.append(clock.now_us - a - s)

        k.at(float(arrivals[i]), lambda fn=body, i=i: k.spawn(fn, name=f"q{i}"))
    k.run()

    expected = mm1_mean_wait_us(rate_qps, mean_service)
    assert np.mean(waits) == pytest.approx(expected, rel=0.15)


def test_mm1_mean_wait_validation():
    with pytest.raises(ValueError):
        mm1_mean_wait_us(0.0, 100.0)
    with pytest.raises(ValueError, match="unstable"):
        mm1_mean_wait_us(10_000.0, 100.0)  # rho = 1
    # Sanity: rho=0.5 with mu=1/100us -> Wq = 100us.
    assert mm1_mean_wait_us(5_000.0, 100.0) == pytest.approx(100.0)
