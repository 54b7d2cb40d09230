"""A finished stack is freed by reference counting alone.

The manager owns its telemetry (and the telemetry its tracer, audit log,
timeline and flight recorder); nothing they own points back at them, and
``drive``'s callbacks do not outlive the run.  So dropping the last
reference frees the whole stack at once, with the cycle collector off —
a long sweep or a benchmark building one stack per repeat does not
carry the previous ones until the next collection.
"""

import gc
import weakref

import pytest

import repro.workloads.openloop as openloop
from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.query import Query
from repro.obs import FlightRecorder, Telemetry
from repro.sim.kernel import Kernel
from repro.workloads.openloop import PoissonArrivals, run_open_loop

KB = 1024
QUERIES = [Query(i % 60, (1 + i % 25, 26 + i % 20)) for i in range(150)]


@pytest.fixture
def no_cycle_collection():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.fixture
def kernels(monkeypatch):
    """Weak references to every kernel ``run_open_loop`` builds."""
    made = []

    class Kept(Kernel):
        def __init__(self, clock) -> None:
            super().__init__(clock)
            made.append(weakref.ref(self))

    monkeypatch.setattr(openloop, "Kernel", Kept)
    return made


def _armed() -> Telemetry:
    tel = Telemetry()
    tel.attach_timeline(window_us=2_000.0)
    FlightRecorder(tel, out_dir=None).arm()
    return tel


def _manager(index, telemetry) -> CacheManager:
    cfg = CacheConfig(
        mem_result_bytes=100 * KB, mem_list_bytes=384 * KB,
        ssd_result_bytes=512 * KB, ssd_list_bytes=2048 * KB,
        policy=Policy.CBLRU,
    )
    return CacheManager(cfg, build_hierarchy_for(cfg, index), index,
                        telemetry=telemetry)


def _refs(manager) -> dict:
    refs = {"manager": weakref.ref(manager),
            "hierarchy": weakref.ref(manager.hierarchy)}
    tel = manager.telemetry
    if tel is not None:
        refs.update(telemetry=weakref.ref(tel),
                    tracer=weakref.ref(tel.tracer),
                    audit=weakref.ref(tel.audit),
                    timeline=weakref.ref(tel.timeline),
                    flight=weakref.ref(tel.flight))
    return refs


def _alive(refs: dict) -> list:
    return [name for name, ref in refs.items() if ref() is not None]


def test_closed_armed_serve_is_freed_on_del(small_index,
                                            no_cycle_collection):
    manager = _manager(small_index, _armed())
    for query in QUERIES:
        manager.process_query(query)
    refs = _refs(manager)
    del manager
    assert _alive(refs) == []


@pytest.mark.parametrize("armed", [False, True], ids=["unarmed", "armed"])
def test_open_loop_run_is_freed_on_del(small_index, no_cycle_collection,
                                       kernels, armed):
    manager = _manager(small_index, _armed() if armed else None)
    result = run_open_loop(manager, QUERIES, PoissonArrivals(60.0, seed=2),
                           concurrency=4, max_queue=64)
    assert result.completed == len(QUERIES)
    if armed:
        assert manager.telemetry.blame.kernel is not None
    refs = _refs(manager)
    [refs["kernel"]] = kernels
    del manager
    assert _alive(refs) == []
