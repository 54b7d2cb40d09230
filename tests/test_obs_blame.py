"""Per-query blame: exact reconciliation, capacity model, JSONL schema."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.broker import Broker
from repro.core.config import CacheConfig, Policy
from repro.core.manager import CacheManager, build_hierarchy_for
from repro.engine.corpus import CorpusConfig
from repro.engine.index import InvertedIndex
from repro.engine.querylog import QueryLogConfig, generate_query_log
import repro.obs.blame as blame_module
from repro.obs import Telemetry
from repro.obs.blame import (
    ADMISSION,
    BLAME_SCHEMA,
    BlameRecorder,
    QueryBlame,
    assemble_queries,
    blame_profiles,
    capacity_model,
    format_blame_report,
    format_query_blame,
    load_blame_jsonl,
)
from repro.obs.timeline import derive_window
from repro.sim.clock import VirtualClock
from repro.sim.kernel import AdmissionControl, Kernel
from repro.sim.queueing import mm1_mean_wait_us, simulate_fifo_queue
from repro.sim.rng import make_rng
from repro.workloads.openloop import PoissonArrivals, run_open_loop

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


# -- exact reconciliation ----------------------------------------------------

def test_open_loop_reconciles_exactly(index, log):
    tel = Telemetry(trace=False, audit=False)
    manager = make_manager(index, telemetry=tel)
    result = run_open_loop(manager, list(log), PoissonArrivals(60.0, seed=2),
                           concurrency=4, max_queue=64, label="blame")
    rec = tel.blame
    assert rec is not None and rec.kernel is not None
    queries = assemble_queries(rec.records)
    assert len(queries) == result.completed == len(log)
    for q in queries:
        # The strict-handoff kernel makes the decomposition exact, not
        # approximate: admission + waits + services tile the lifetime.
        assert q.residual_us == 0.0
        assert q.total_us > 0
        assert q.admission_wait_us >= 0.0
        assert q.service_us, "every query must consume some resource"
    # Every query carries a qid tag with the manager's semantics (queries
    # completed before this one started): in range, and shared by at most
    # the inflight limit when starts overlap.
    qids = [q.qid for q in queries]
    assert all(qid is not None and 0 <= qid < len(log) for qid in qids)
    assert max(qids.count(v) for v in set(qids)) <= result.concurrency
    # The aggregate ledger agrees with the per-query decomposition.
    total_wait = sum(sum(q.wait_us.values()) for q in queries)
    ledger_wait = sum(t[1] for name, t in rec.totals.items()
                      if name != ADMISSION)
    assert total_wait == pytest.approx(ledger_wait, rel=1e-9)


def test_blame_recording_never_perturbs(index, log):
    """Simulated open-loop results are identical with blame on or off."""
    def run(telemetry):
        manager = make_manager(index, telemetry=telemetry)
        return run_open_loop(manager, list(log),
                             PoissonArrivals(60.0, seed=7),
                             concurrency=4, max_queue=64, label="p")

    bare = dataclasses.asdict(run(None))
    observed = dataclasses.asdict(run(Telemetry(trace=False, audit=False)))
    assert bare == observed


def test_cluster_fanout_reconciles_and_blames_straggler(log):
    base = CorpusConfig(num_docs=6000, vocab_size=120, seed=19)
    cfg = CacheConfig(
        mem_result_bytes=100 * KB, mem_list_bytes=256 * KB,
        ssd_result_bytes=512 * KB, ssd_list_bytes=2048 * KB,
        policy=Policy.CBLRU,
    )
    broker = Broker.build(base, num_shards=2, cache_config=cfg,
                          shared_clock=True)
    rec = BlameRecorder()
    queries = list(log)[:60]
    result = broker.run_open_loop(queries, PoissonArrivals(80.0, seed=3),
                                  concurrency=4, max_queue=32, blame=rec)
    blamed = assemble_queries(rec.records)
    assert len(blamed) == result.completed
    billed = set()
    for q in blamed:
        # Join windows recurse into shard subtasks; clipping at the join
        # bounds can leave float-rounding dust, but nothing structural.
        assert abs(q.residual_us) < 1e-6
        billed.update(q.wait_us)
        billed.update(q.service_us)
    # Per-shard suffixed resources show up in parent queries' bills.
    assert any(name.endswith("#0") for name in billed)
    assert any(name.endswith("#1") for name in billed)
    # At least some queries fanned out and name their straggler shard task.
    stragglers = [q.straggler for q in blamed if q.straggler]
    assert stragglers
    assert all(s.startswith("q") for s in stragglers)


# -- the property, on a synthetic kernel -------------------------------------

# Dyadic durations keep every timestamp exactly representable, so the
# "zero residual" claim is tested as an exact equality, not a tolerance.
_DYADIC_SERVICE = st.integers(min_value=1, max_value=80).map(lambda n: n * 0.5)
_DYADIC_GAP = st.integers(min_value=0, max_value=120).map(lambda n: n * 0.25)


@settings(max_examples=30, deadline=None)
@given(jobs=st.lists(
    st.tuples(
        _DYADIC_GAP,
        st.lists(st.tuples(st.sampled_from(["ssd", "hdd", "cpu"]),
                           _DYADIC_SERVICE), min_size=1, max_size=4),
        st.booleans(),  # fan out a joined child?
    ),
    min_size=1, max_size=12,
))
def test_component_sums_equal_end_to_end(jobs):
    """Property: every top-level task's blame components tile its lifetime."""
    k = Kernel(VirtualClock())
    rec = BlameRecorder().attach(k)
    t = 0.0
    for i, (gap, serves, fan) in enumerate(jobs):
        t += gap

        def body(serves=serves, fan=fan, i=i):
            for res, dur in serves:
                k.serve(res, dur)
            if fan:
                child = k.spawn(lambda: k.serve("shard", 8.0),
                                name=f"q{i}s0")
                child.join()

        k.at(t, lambda fn=body, i=i: k.spawn(fn, name=f"q{i}"))
    k.run()
    queries = assemble_queries(rec.records)
    assert len(queries) == len(jobs)
    for q in queries:
        assert q.total_us == q.components_us  # exactly, no tolerance
        assert q.residual_us == 0.0


# -- Little's law and the capacity model -------------------------------------

def test_little_law_matches_fifo_reference():
    """The recorder's capacity model reconciles with simulate_fifo_queue."""
    n, rate_qps, seed = 300, 3000.0, 9
    service = make_rng(11).exponential(250.0, size=n)
    ref = simulate_fifo_queue(service, rate_qps, seed=seed)
    arrivals = np.cumsum(make_rng(seed).exponential(1e6 / rate_qps, size=n))

    k = Kernel(VirtualClock())
    rec = BlameRecorder().attach(k)
    for i in range(n):
        def body(s=float(service[i])):
            k.serve("dev", s)

        k.at(float(arrivals[i]), lambda fn=body, i=i: k.spawn(fn, name=f"q{i}"))
    k.run()

    cap = rec.capacity(completed=n)
    assert cap["little_law_ok"], cap
    dev = cap["per_resource"]["dev"]
    # Depth-time integral L and lambda*W come from independent paths and
    # must agree almost exactly on a drained run.
    assert dev["little_rel_err"] < 1e-9
    assert dev["mean_wait_us"] == pytest.approx(ref.mean_wait_us, rel=1e-9)
    assert cap["bottleneck"] == "dev"
    assert cap["knee_qps"] > 0


def test_little_law_and_mean_wait_match_mm1():
    n, mean_service, rho = 6000, 100.0, 0.7
    rate_qps = rho * 1e6 / mean_service
    rng = make_rng(42)
    arrivals = np.cumsum(rng.exponential(mean_service / rho, size=n))
    services = rng.exponential(mean_service, size=n)

    k = Kernel(VirtualClock())
    rec = BlameRecorder().attach(k)
    for i in range(n):
        def body(s=float(services[i])):
            k.serve("dev", s)

        k.at(float(arrivals[i]), lambda fn=body, i=i: k.spawn(fn, name=f"q{i}"))
    k.run()

    cap = rec.capacity(completed=n)
    assert cap["little_law_ok"]
    dev = cap["per_resource"]["dev"]
    expected = mm1_mean_wait_us(rate_qps, mean_service)
    assert dev["mean_wait_us"] == pytest.approx(expected, rel=0.15)
    # rho = 0.7, so the knee estimate sits near rate/rho.
    assert cap["knee_qps"] == pytest.approx(rate_qps / rho, rel=0.15)


def test_capacity_model_edge_cases():
    rows = [{"name": "idle", "lanes": 1, "served": 0, "busy_us": 0.0,
             "wait_us": 0.0, "service_us": 0.0, "depth_area_us": 0.0,
             "peak_depth": 0},
            {"name": "hot", "lanes": 2, "served": 10, "busy_us": 150.0,
             "wait_us": 40.0, "service_us": 150.0, "depth_area_us": 190.0,
             "peak_depth": 3}]
    cap = capacity_model(rows, horizon_us=100.0, completed=10)
    assert cap["bottleneck"] == "hot"  # served=0 never wins the bottleneck
    assert cap["per_resource"]["hot"]["utilization"] == pytest.approx(0.75)
    assert cap["knee_qps"] == pytest.approx((10 / 100e-6) / 0.75)
    assert cap["little_law_ok"]
    # Zero horizon: no division, everything reports zero.
    zero = capacity_model(rows, horizon_us=0.0, completed=10)
    assert zero["knee_qps"] is None
    assert zero["per_resource"]["hot"]["utilization"] == 0.0


# -- differential blame ------------------------------------------------------

def _q(task, total, ssd_wait=0.0, adm=0.0):
    q = QueryBlame(task=task, name=f"q{task}", qid=task, start_us=0.0,
                   end_us=total - adm, admission_wait_us=adm)
    q.wait_us["ssd"] = ssd_wait
    q.service_us["cpu"] = total - adm - ssd_wait
    return q


def test_blame_profiles_names_the_growing_wait():
    fast = [_q(i, 100.0, ssd_wait=5.0) for i in range(98)]
    slow = [_q(98 + i, 1000.0, ssd_wait=800.0) for i in range(2)]
    prof = blame_profiles(fast + slow, tail_pct=99.0)
    assert prof["queries"] == 100
    assert prof["verdict"] == "ssd"
    assert prof["wait_growth_us"]["ssd"] > 700.0
    assert prof["tail_total_mean_us"] > prof["median_total_mean_us"]


def test_blame_profiles_empty_and_admission():
    assert blame_profiles([])["verdict"] is None
    # Admission wait is billed under the pseudo-resource in the cohorts.
    qs = [_q(i, 100.0) for i in range(50)] + \
        [_q(50 + i, 900.0, adm=850.0) for i in range(2)]
    prof = blame_profiles(qs, tail_pct=95.0)
    assert prof["verdict"] == ADMISSION


# -- ring, stream, schema ----------------------------------------------------

def _synthetic_run(rec, jobs=20, service=10.0, k=None):
    if k is None:
        k = Kernel(VirtualClock())
        rec.attach(k)
    for i in range(jobs):
        k.at(float(i), lambda i=i: k.spawn(
            lambda: k.serve("dev", service), name=f"q{i}"))
    k.run()
    return k


def test_ring_drops_oldest_but_totals_survive(monkeypatch):
    monkeypatch.setattr(blame_module, "RING_CAPACITY", 8)
    rec = BlameRecorder()
    _synthetic_run(rec, jobs=20)
    assert len(rec.records) == 8
    assert rec.dropped > 0
    # Aggregates are kept outside the ring: still exact after drops.
    assert rec.totals["dev"][0] == 20
    assert rec.totals["dev"][2] == pytest.approx(20 * 10.0)


def test_jsonl_stream_roundtrip_and_validation(tmp_path):
    path = str(tmp_path / "blame.jsonl")
    tel = Telemetry(trace=False, audit=False, out_dir=tmp_path)
    k = Kernel(VirtualClock())
    tel.observe_kernel(k)
    rec = tel.blame
    _synthetic_run(rec, jobs=5, k=k)
    rec.finish()
    log = load_blame_jsonl(path)
    kinds = [r["type"] for r in log.records]
    assert kinds.count("serve") == 5
    assert kinds.count("task") == 5
    assert len(log.resources) == 1
    assert log.header["schema"] == BLAME_SCHEMA
    assert log.footer["dropped"] == 0
    # Re-export to the streamed path finalises it; no other path will do.
    assert rec.export_jsonl(path) == len(rec.records)
    with pytest.raises(ValueError, match="streamed in place"):
        rec.export_jsonl(str(tmp_path / "copy.jsonl"))
    assert [q.residual_us for q in
            assemble_queries(log.records)] == [0.0] * 5


def test_streamed_file_holds_what_the_ring_dropped(tmp_path, monkeypatch):
    monkeypatch.setattr(blame_module, "RING_CAPACITY", 8)
    path = tmp_path / "blame.jsonl"
    tel = Telemetry(trace=False, audit=False, out_dir=tmp_path)
    k = Kernel(VirtualClock())
    tel.observe_kernel(k)
    _synthetic_run(tel.blame, jobs=20, k=k)
    written = tel.blame.export_jsonl(str(path))
    # every line but the header is a record; the ring kept only 8
    assert written == len(path.read_text().splitlines()) - 1 > 8
    assert len(tel.blame.records) == 8
    assert load_blame_jsonl(str(path)).footer["dropped"] > 0


def test_validate_rejects_bad_files(tmp_path):
    bad_header = tmp_path / "bad1.jsonl"
    bad_header.write_text('{"schema": "nope/v9"}\n')
    with pytest.raises(ValueError, match="not a"):
        load_blame_jsonl(str(bad_header))
    bad_type = tmp_path / "bad2.jsonl"
    bad_type.write_text(json.dumps({"schema": BLAME_SCHEMA}) + "\n"
                        + '{"type": "mystery"}\n')
    with pytest.raises(ValueError, match="unknown record type"):
        load_blame_jsonl(str(bad_type))
    missing = tmp_path / "bad3.jsonl"
    missing.write_text(json.dumps({"schema": BLAME_SCHEMA}) + "\n"
                       + '{"type": "serve", "task": 0}\n')
    with pytest.raises(ValueError, match="missing field"):
        load_blame_jsonl(str(missing))


def test_shed_and_footer_account_every_arrival():
    k = Kernel(VirtualClock())
    rec = BlameRecorder()
    admission = AdmissionControl(k, max_inflight=1, max_queue=1)
    rec.attach(k, admission=admission)
    for i in range(4):
        k.at(0.0, lambda i=i: admission.submit(
            lambda: k.serve("dev", 10.0), name=f"j{i}"))
    k.run()
    rec.finish()
    sheds = [r for r in rec.records if r.get("type") == "shed"]
    footer = [r for r in rec.records if r.get("type") == "footer"][0]
    assert len(sheds) == admission.stats.rejected == 2
    assert footer["arrived"] == 4
    assert footer["completed"] + footer["rejected"] == 4
    assert footer["shed"] == 2
    # Admission wait is billed under the pseudo-resource.
    assert rec.totals[ADMISSION][0] == admission.stats.admitted == 2
    # finish() is idempotent: no duplicate footer on a second call.
    rec.finish()
    assert sum(1 for r in rec.records if r.get("type") == "footer") == 1


# -- derived series and formatting -------------------------------------------

def test_wait_fraction_derived_from_blame_counters():
    rec = {"counters": {"blame_wait_us_total{resource=dev}": 75.0,
                        "blame_service_us_total{resource=dev}": 25.0},
           "gauges": {}, "histograms": {}}
    assert derive_window(rec)["wait_fraction"] == pytest.approx(0.75)
    # Without blame counters the series is simply absent.
    assert "wait_fraction" not in derive_window(
        {"counters": {}, "gauges": {}, "histograms": {}})


def test_format_renders_report_and_query(index, log):
    tel = Telemetry(trace=False, audit=False)
    manager = make_manager(index, telemetry=tel)
    run_open_loop(manager, list(log)[:40], PoissonArrivals(60.0, seed=2),
                  concurrency=4, label="fmt")
    rec = tel.blame
    queries = assemble_queries(rec.records)
    report = format_blame_report(queries, blame_profiles(queries),
                                 rec.capacity(completed=len(queries)))
    assert "capacity model" in report
    assert "Little's-law self-check: ok" in report
    assert "<- blame" in report
    text = format_query_blame(max(queries, key=lambda q: q.total_us))
    assert "total" in text and "residual 0.000 us" in text
