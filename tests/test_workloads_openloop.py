"""Open-loop arrivals and the emergent concurrent driver."""

import pytest

from repro.cluster.broker import Broker
from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.querylog import QueryLogConfig, generate_query_log
from repro.obs import KernelMetrics, MetricsRegistry, Telemetry
from repro.sim.clock import VirtualClock
from repro.sim.kernel import AdmissionControl, Kernel
from repro.workloads.openloop import (
    DiurnalArrivals,
    PoissonArrivals,
    run_open_loop,
    schedule_arrivals,
)

KB = 1024


@pytest.fixture(scope="module")
def index():
    return InvertedIndex(CorpusConfig(num_docs=4000, vocab_size=120, seed=29))


@pytest.fixture(scope="module")
def log():
    return generate_query_log(QueryLogConfig(
        num_queries=120, distinct_queries=60, vocab_size=120, seed=5))


def make_manager(index, telemetry=None) -> CacheManager:
    cfg = CacheConfig(
        mem_result_bytes=100 * KB, mem_list_bytes=384 * KB,
        ssd_result_bytes=512 * KB, ssd_list_bytes=2048 * KB,
        policy=Policy.CBLRU,
    )
    return CacheManager(cfg, build_hierarchy_for(cfg, index), index,
                        telemetry=telemetry)


# -- arrival processes -------------------------------------------------------

def test_poisson_arrivals_deterministic_with_correct_mean_gap():
    a1 = PoissonArrivals(1000.0, seed=3)
    a2 = PoissonArrivals(1000.0, seed=3)
    t1 = t2 = 0.0
    gaps = []
    for _ in range(2000):
        n1, n2 = a1.next_after(t1), a2.next_after(t2)
        assert n1 == n2
        assert n1 > t1
        gaps.append(n1 - t1)
        t1, t2 = n1, n2
    mean_gap = sum(gaps) / len(gaps)
    assert mean_gap == pytest.approx(1e6 / 1000.0, rel=0.1)


def test_poisson_validation():
    with pytest.raises(ValueError):
        PoissonArrivals(0.0)


def test_diurnal_rate_swings_between_floor_and_peak():
    d = DiurnalArrivals(100.0, period_s=10.0, floor_fraction=0.2)
    assert d.rate_at(0.0) == pytest.approx(20.0)  # cycle starts at night
    assert d.rate_at(5e6) == pytest.approx(100.0)  # mid-period peak
    for t in range(0, 10_000_000, 250_000):
        assert 20.0 - 1e-9 <= d.rate_at(float(t)) <= 100.0 + 1e-9


def test_diurnal_arrivals_deterministic_and_monotonic():
    d1 = DiurnalArrivals(200.0, period_s=2.0, seed=9)
    d2 = DiurnalArrivals(200.0, period_s=2.0, seed=9)
    t = 0.0
    for _ in range(500):
        n1 = d1.next_after(t)
        assert n1 == d2.next_after(t)
        assert n1 > t
        t = n1


def test_diurnal_validation():
    with pytest.raises(ValueError):
        DiurnalArrivals(0.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(10.0, period_s=0.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(10.0, floor_fraction=0.0)
    with pytest.raises(ValueError):
        DiurnalArrivals(10.0, floor_fraction=1.5)


def test_schedule_arrivals_submits_each_query_once_in_order():
    kernel = Kernel(VirtualClock())
    seen = []
    schedule_arrivals(kernel, PoissonArrivals(500.0, seed=1), 25,
                      lambda i, t: seen.append((i, t)))
    kernel.run()
    assert [i for i, _ in seen] == list(range(25))
    times = [t for _, t in seen]
    assert times == sorted(times)
    assert times[0] > 0.0


# -- the emergent driver -----------------------------------------------------

def test_run_open_loop_completes_and_detaches(index, log):
    manager = make_manager(index)
    result = run_open_loop(manager, list(log), PoissonArrivals(50.0, seed=2),
                           concurrency=4, max_queue=64, label="t")
    assert result.arrived == len(log)
    assert result.completed == len(log)
    assert result.rejected == 0
    assert result.duration_us > 0
    assert result.mean_response_us > 0
    assert result.p999_us >= result.p99_us >= result.p50_us > 0
    assert result.throughput_qps > 0
    # Device resources actually served work.
    assert sum(result.peak_resource_depth.values()) > 0
    assert any(u > 0 for u in result.utilization.values())
    # The kernel detached: the manager serves closed-loop again.
    assert manager.clock.kernel is None
    out = manager.process_query(log[0])
    assert out.response_us > 0


def test_run_open_loop_sheds_past_the_knee(index, log):
    manager = make_manager(index)
    # Offered load far above capacity with a tiny queue: shedding must
    # emerge, and every arrival must still be accounted for.
    result = run_open_loop(manager, list(log),
                           PoissonArrivals(100_000.0, seed=2),
                           concurrency=2, max_queue=2, label="hot")
    assert result.rejected > 0
    assert result.completed + result.rejected == result.arrived == len(log)
    assert 0.0 < result.reject_fraction < 1.0
    assert result.peak_inflight <= 2 + 2  # inflight + bounded queue


def test_closed_loop_one_client_matches_the_synchronous_loop(index, log):
    # arrivals=None, one client: one kernel task per query, served back
    # to back -- the same accounting as run_cached on a twin manager.
    from repro.workloads.retrieval import run_cached

    kernel_mgr, sync_mgr = make_manager(index), make_manager(index)
    result = run_open_loop(kernel_mgr, list(log), None, concurrency=1)
    run_cached(index, log, sync_mgr.config, manager=sync_mgr)
    assert result.arrival == "closed"
    assert result.arrived == result.completed == len(log)
    assert kernel_mgr.stats == sync_mgr.stats
    assert kernel_mgr.clock.now_us == sync_mgr.clock.now_us
    assert result.duration_us == sync_mgr.clock.now_us
    assert kernel_mgr.clock.kernel is None


def test_closed_loop_clients_are_admitted_without_waiting(index, log):
    tel = Telemetry(trace=False)
    manager = make_manager(index, telemetry=tel)
    result = run_open_loop(manager, list(log), None, concurrency=4)
    assert result.arrived == result.completed == len(log)
    assert result.rejected == 0
    assert 1 < result.peak_inflight <= 4
    assert result.mean_wait_us == 0.0
    assert result.offered_qps == 0.0
    assert manager.stats.queries == len(log)
    # Every query is its own admitted, qid-tagged root task.
    tasks = [r for r in tel.blame.records if r["type"] == "task"]
    assert [t["name"] for t in sorted(tasks, key=lambda t: t["task"])] == [
        f"q{i}" for i in range(len(log))]
    assert all(t["parent"] is None and "qid" in t for t in tasks)
    jobs = [r for r in tel.blame.records if r["type"] == "job"]
    assert len(jobs) == len(log) and all(j["wait_us"] == 0.0 for j in jobs)


def test_run_open_loop_rejects_empty_queries(index):
    with pytest.raises(ValueError):
        run_open_loop(make_manager(index), [], PoissonArrivals(10.0))


# -- kernel telemetry --------------------------------------------------------

def test_queue_depth_gauge_tracks_burst_backlog():
    clock = VirtualClock()
    kernel = Kernel(clock)
    admission = AdmissionControl(kernel, max_inflight=1, max_queue=8)
    registry = MetricsRegistry()
    bridge = KernelMetrics(registry, kernel, admission)
    for i in range(5):
        kernel.at(0.0, lambda i=i: admission.submit(
            lambda: kernel.serve("dev", 100.0), name=f"b{i}"))
    sampled = []
    kernel.at(50.0, lambda: (
        bridge.collect(),
        sampled.append(registry.gauge("queue_depth", resource="admission").value),
        sampled.append(registry.gauge("queue_depth", resource="dev").value),
    ))
    kernel.run()
    # Mid-burst: one job in service on "dev", four waiting for a slot.
    assert sampled == [5.0, 1.0]
    bridge.collect()
    assert registry.gauge("queue_depth", resource="admission").value == 0.0
    assert registry.counter("admission_completed_total").value == 5
    assert registry.counter("arrivals_total").value == 5
    assert registry.counter(
        "kernel_served_total", resource="dev").value == 5


def test_telemetry_observe_kernel_collects_gauges(index, log):
    tel = Telemetry(trace=False, audit=False)
    manager = make_manager(index, telemetry=tel)
    run_open_loop(manager, list(log)[:40], PoissonArrivals(50.0, seed=4),
                  concurrency=4, label="tel")
    tel.collect()
    assert tel.registry.counter("arrivals_total").value == 40
    assert tel.registry.counter("admission_completed_total").value == 40
    # Every hierarchy device became a kernel resource with a depth gauge.
    assert tel.registry.get("queue_depth", resource="admission") is not None
    assert tel.registry.get("queue_depth", resource="index-hdd") is not None


# -- cluster fan-out ---------------------------------------------------------

BASE = CorpusConfig(num_docs=6000, vocab_size=120, seed=19)


def cluster_cfg():
    return CacheConfig(
        mem_result_bytes=100 * KB, mem_list_bytes=256 * KB,
        ssd_result_bytes=512 * KB, ssd_list_bytes=2048 * KB,
        policy=Policy.CBLRU,
    )


def test_broker_open_loop_requires_shared_clock(log):
    broker = Broker.build(BASE, num_shards=2, cache_config=cluster_cfg())
    with pytest.raises(ValueError, match="shared_clock"):
        broker.run_open_loop(list(log)[:10], PoissonArrivals(50.0, seed=1))


def test_broker_open_loop_fans_out_concurrently(log):
    broker = Broker.build(BASE, num_shards=2, cache_config=cluster_cfg(),
                          shared_clock=True)
    queries = list(log)[:60]
    result = broker.run_open_loop(queries, PoissonArrivals(80.0, seed=3),
                                  concurrency=4, max_queue=32)
    assert result.completed + result.rejected == result.arrived == len(queries)
    assert result.completed > 0
    names = set(result.peak_resource_depth)
    assert "broker" in names
    # Per-shard devices carry the #<shard> suffix on the shared timeline.
    assert any(n.endswith("#0") for n in names)
    assert any(n.endswith("#1") for n in names)
    assert result.mean_response_us > 0
