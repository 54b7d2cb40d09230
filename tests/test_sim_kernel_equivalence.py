"""The baton-passing kernel schedules exactly what the thread-per-task
kernel it replaced did.

``_kernel_reference.py`` is the parent commit's ``repro.sim.kernel``,
verbatim.  Random programs run under both and everything observable is
compared with ``==`` — floats included: the claim is the same events in
the same order at the same times, not a close schedule.

The reference queues every ``serve`` as a heap event; the kernel under
test completes an uncontended one inline (an *elided* event, see its
module docstring).  The random programs mix both kinds freely; the
directed cases at the bottom sit on the edges of that rule and also say
how many events were elided: events handled minus heap entries pushed.
"""

import math
import threading
from dataclasses import asdict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.blame import BlameRecorder
from repro.sim import kernel as baton
from repro.sim.clock import VirtualClock

from . import _kernel_reference as reference

# Few distinct times, most of them inexact in binary and one of them
# zero: events tie on the clock (the heap's sequence number decides),
# requests queue behind each other, and a sum taken in another order
# would differ in its last bit.
TIMES = st.sampled_from((0.0, 0.1, 0.3, 1.0, 1.7, 2.5, 10.0))

LEAF_OP = st.one_of(
    st.tuples(st.just("serve"), st.integers(0, 2), TIMES, st.booleans()),
    st.tuples(st.just("sleep"), TIMES),
)
#: ``fork`` spawns a child running the given ops; ``join`` waits for the
#: oldest child not yet joined (children never joined simply run on).
#: Leaf ops are listed twice so that half of a task's ops touch a device.
OP = st.one_of(
    LEAF_OP,
    LEAF_OP,
    st.tuples(st.just("fork"), st.lists(LEAF_OP, max_size=3)),
    st.tuples(st.just("join")),
)


@st.composite
def programs(draw, failing: bool):
    tasks = draw(st.lists(
        st.tuples(TIMES,
                  st.sampled_from(("spawn", "job", "job")),
                  st.lists(OP, max_size=6)),
        min_size=1, max_size=8,
    ))
    if failing:
        victim = draw(st.integers(0, len(tasks) - 1))
        start, how, ops = tasks[victim]
        cut = draw(st.integers(0, len(ops)))
        tasks[victim] = (start, how, ops[:cut] + [("boom",)])
    return {
        "lanes": draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)),
        "max_inflight": draw(st.integers(1, 3)),
        "max_queue": draw(st.integers(0, 3)),
        "tasks": tasks,
        #: timed callbacks that only look at the clock
        "ticks": draw(st.lists(TIMES, max_size=4)),
    }


def execute(mod, program, with_blame: bool) -> dict:
    """Run ``program`` on ``mod``'s kernel; everything observable."""
    clock = VirtualClock()
    k = mod.Kernel(clock)
    lanes = program["lanes"]
    for i, n in enumerate(lanes):
        k.add_resource(f"r{i}", lanes=n)
    admission = mod.AdmissionControl(
        k, max_inflight=program["max_inflight"],
        max_queue=program["max_queue"])
    blame = BlameRecorder().attach(k, admission) if with_blame else None
    trace: list[tuple] = []

    def body(name, ops):
        def run():
            children = []
            for i, op in enumerate(ops):
                if op[0] == "serve":
                    clock.consume(f"r{op[1] % len(lanes)}", op[2],
                                  charge=op[3])
                elif op[0] == "sleep":
                    k.sleep(op[1])
                elif op[0] == "fork":
                    child = f"{name}.{i}"
                    children.append(k.spawn(body(child, op[1]), name=child))
                elif op[0] == "join":
                    if children:
                        trace.append((clock.now_us, name, i,
                                      children.pop(0).join()))
                else:
                    raise ValueError(f"boom in {name}")
                trace.append((clock.now_us, name, i))
            return name
        return run

    tasks = []
    for i, (start, how, ops) in enumerate(program["tasks"]):
        name = f"t{i}"
        if how == "spawn":
            tasks.append(k.spawn(body(name, ops), name=name, at_us=start))
        else:
            k.at(start, lambda fn=body(name, ops), name=name: trace.append(
                (clock.now_us, name, admission.submit(fn, name=name))))
    for i, t_us in enumerate(program["ticks"]):
        k.at(t_us, lambda i=i: trace.append((clock.now_us, "tick", i)))

    out = {}
    try:
        out["handled"] = k.run()
    except ValueError as exc:
        out["raised"] = str(exc)
    admission.check_invariants()
    out["trace"] = trace
    out["now_us"] = clock.now_us
    out["busy_us"] = [(ch, clock.busy_us(ch)) for ch in clock.channels()]
    out["resources"] = [
        (r.name, r.lanes, r.served, r.busy_us, r.peak_depth, r.depth_area_us)
        for r in k.resources()
    ]
    out["admission"] = (asdict(admission.stats), admission.peak_depth,
                        admission.inflight, admission.queue_depth)
    out["results"] = [(t.name, t.done, t.result) for t in tasks]
    out["pushed"] = k._seq
    if blame is not None:
        out["blame"] = (list(blame.records), blame.totals, blame.shed_count)
    return out


def assert_same_schedule(program, with_blame: bool) -> dict:
    threads = threading.active_count()
    got = execute(baton, program, with_blame)
    assert threading.active_count() == threads
    want = execute(reference, program, with_blame)
    # The one thing allowed to differ: the reference pushes every event.
    pushed = got.pop("pushed")
    if "handled" in want:
        assert want.pop("pushed") == want["handled"]
        got["elided"] = got["handled"] - pushed
        want["elided"] = got["elided"]
    else:
        del want["pushed"]
    # Key by key, so a failure names what diverged.
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
    return got


@settings(max_examples=150, deadline=None)
@given(program=programs(failing=False), with_blame=st.booleans())
def test_random_programs_schedule_identically(program, with_blame):
    got = assert_same_schedule(program, with_blame)
    assert "raised" not in got


@settings(max_examples=60, deadline=None)
@given(program=programs(failing=True), with_blame=st.booleans())
def test_a_failing_task_stops_both_kernels_at_the_same_event(program,
                                                             with_blame):
    # Either the poisoned task got to run (same error, same trace up to
    # it) or admission shed it (both kernels drain normally).
    assert_same_schedule(program, with_blame)


# -- directed cases at the edges of the elision rule ---------------------------

def program(tasks, ticks=(), lanes=(1,)):
    return {"lanes": list(lanes), "max_inflight": 1, "max_queue": 0,
            "tasks": [(start, "spawn", ops) for start, ops in tasks],
            "ticks": list(ticks)}


def serve(us, res=0):
    return ("serve", res, us, True)


def both_ways(prog) -> dict:
    got = assert_same_schedule(prog, with_blame=True)
    assert assert_same_schedule(prog, with_blame=False)["elided"] == \
        got["elided"]
    return got


def test_an_event_due_at_the_completion_instant_runs_before_it():
    # The tick was pushed first, so at equal times it pops first: the
    # serve may not be completed inline.
    got = both_ways(program([(0.0, [serve(1.0)])], ticks=[1.0]))
    assert got["trace"] == [(1.0, "tick", 0), (1.0, "t0", 0)]
    assert got["elided"] == 0


def test_an_event_due_one_ulp_after_the_completion_runs_after_it():
    later = math.nextafter(1.0, math.inf)
    got = both_ways(program([(0.0, [serve(1.0)])], ticks=[later]))
    assert got["trace"] == [(1.0, "t0", 0), (later, "tick", 0)]
    assert got["elided"] == 1


def test_a_zero_length_service_alone_is_elided():
    got = both_ways(program([(0.0, [serve(0.0), serve(0.0)])]))
    assert got["trace"] == [(0.0, "t0", 0), (0.0, "t0", 1)]
    assert got["resources"] == [("r0", 1, 2, 0.0, 1, 0.0)]
    assert got["elided"] == 2


def test_a_zero_length_service_yields_to_a_same_time_event():
    got = both_ways(program([(0.0, [serve(0.0)])], ticks=[0.0]))
    assert got["trace"] == [(0.0, "tick", 0), (0.0, "t0", 0)]
    assert got["elided"] == 0


def test_a_free_lane_beside_a_busy_one_still_elides():
    # t0 holds one of two lanes until 10 (queued: t1's start is due
    # first); t1's 2us on the other lane has nothing due before it ends.
    got = both_ways(program([(0.0, [serve(10.0)]), (1.0, [serve(2.0)])],
                            lanes=(2,)))
    assert got["trace"] == [(3.0, "t1", 0), (10.0, "t0", 0)]
    # depth 1 over [0,1) and [3,10), depth 2 over [1,3)
    assert got["resources"] == [("r0", 2, 2, 12.0, 2, 12.0)]
    assert got["elided"] == 1


def test_queued_requests_after_an_elided_one_keep_the_depth_integral():
    # t0's first serve is elided (heap empty).  Its fork is then due
    # inside the second serve, which is queued on the heap; the child's
    # request waits behind it for the single lane.
    got = both_ways(program([(0.0, [serve(1.0), ("fork", [serve(2.0)]),
                                    serve(5.0)])]))
    assert got["trace"] == [(1.0, "t0", 0), (1.0, "t0", 1), (6.0, "t0", 2),
                            (8.0, "t0.1", 0)]
    # depth 1 over [0,1), 2 over [1,6), 1 over [6,8)
    assert got["resources"] == [("r0", 1, 3, 8.0, 2, 13.0)]
    assert got["elided"] == 1


def test_a_task_that_raises_stops_a_run_of_elidable_serves():
    # t0's serves end at 1, 2, ... and are elided until t1's start (5.5)
    # falls inside one; t1 raises, and t0 is unwound where it blocked.
    prog = program([(0.0, [serve(1.0)] * 50), (5.5, [("boom",)])])
    for with_blame in (False, True):
        got = assert_same_schedule(prog, with_blame)
        assert got["raised"] == "boom in t1"
        assert got["trace"] == [(float(i + 1), "t0", i) for i in range(5)]
