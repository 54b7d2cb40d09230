"""The benchmark harness: run a suite, emit a ``BENCH_<n>.json`` document.

Each scenario replays a deterministic query log through the full cached
stack with a registry-only :class:`~repro.obs.Telemetry` attached (no
spans, no audit — the cheap configuration) plus a windowed timeline,
then folds the run result, the stage-latency histograms and the
flash-device bridge into one flat metrics dict.  Every value is
simulated — a pure function of the code and the seed — so unchanged
code reproduces the document byte for byte.  How fast the simulator
itself runs is not recorded here: ``hostbench/`` measures and gates
host time.

**Steady-state measurement** (methodology ``steady-state/v1``): latency
and hit-ratio metrics are computed over the timeline windows from the
first mean-stable hit-ratio window onward (see
:func:`~repro.obs.timeline.steady_state_window`), so cold-cache warmup
no longer dilutes the numbers the regression gate compares.  Flash
totals that accumulate over the whole device lifetime
(``write_amplification``, ``gc_page_writes``) stay full-run.  The
methodology is recorded in the document, and
:func:`~repro.bench.regression.compare_benches` refuses to compare
documents measured under different methodologies.

Document schema (``repro.bench/v1``)::

    {"schema": "repro.bench/v1", "suite": "smoke",
     "methodology": {"name": "steady-state/v1", ...},
     "scenarios": {"<name>": {"config": {...}, "metrics": {...},
                              "measurement": {...}}}}

Open-loop scenarios additionally carry a ``blame`` block (wait
fraction, bottleneck, knee estimate, Little's-law self-check and
per-resource wait/service means from :mod:`repro.obs.blame`), gated by
``compare_benches`` alongside the simulated metrics.
"""

from __future__ import annotations

import json
import os
import re

from repro.bench.scenarios import SUITES, BenchScenario

__all__ = ["BENCH_SCHEMA", "METHODOLOGY", "run_suite", "run_scenario",
           "write_bench", "load_bench", "next_bench_path"]

BENCH_SCHEMA = "repro.bench/v1"

#: How the metrics were measured; recorded in every document so the
#: regression gate can refuse cross-methodology comparisons.
#: Tolerances are looser than the :func:`steady_state_window` defaults
#: because smoke-scale windows hold only a handful of queries each, so
#: the per-window hit ratio carries ~0.1-0.2 of quantization noise on
#: top of the warmup trend the test is meant to detect.
METHODOLOGY = {
    "name": "steady-state/v1",
    "window_us": 100_000.0,
    "series": "hit_ratio",
    "stability_k": 5,
    "rel_tol": 0.3,
    "abs_tol": 0.1,
}

#: Stage-latency percentiles the document keeps per stage.
_STAGE_QS = (50.0, 99.0)

_BENCH_RE = re.compile(r"^BENCH_(\d+)\.json$")


def _ratio(counters: dict, name: str, hit_outcomes=("l1_hit", "l2_hit")):
    """Hit ratio over one ``cache_*_lookups_total`` counter family."""
    from repro.obs.timeline import parse_series_key

    hits = lookups = 0.0
    for key, v in counters.items():
        if not key.startswith(name + "{"):
            continue
        lookups += v
        _, tags = parse_series_key(key)
        if tags.get("outcome") in hit_outcomes:
            hits += v
    return (hits / lookups if lookups else 0.0), lookups


def run_scenario(scenario: BenchScenario) -> dict:
    """Run one scenario; returns its ``{"config", "metrics",
    "measurement"}`` entry (plus ``"blame"`` for open-loop scenarios)."""
    from repro.obs import Telemetry, merge_windows, steady_state_window
    from repro.workloads.retrieval import run_cached

    index, log, cfg = scenario.inputs()
    if scenario.arrival != "closed":
        return _run_open_scenario(scenario, index, log, cfg)

    tel = Telemetry(trace=False, audit=False)
    timeline = tel.attach_timeline(window_us=METHODOLOGY["window_us"])
    result = run_cached(
        index, log, cfg,
        static_analyze_queries=scenario.queries // 2,
        seed=scenario.seed, telemetry=tel,
    )
    timeline.finish()

    windows = list(timeline.windows)
    steady = steady_state_window(
        windows, series=METHODOLOGY["series"], k=METHODOLOGY["stability_k"],
        rel_tol=METHODOLOGY["rel_tol"], abs_tol=METHODOLOGY["abs_tol"],
    )
    merged = merge_windows(windows, start_window=steady)
    measurement = {
        "steady_window": steady,
        "windows_total": len(windows),
        "windows_measured": sum(
            1 for w in windows if steady is None or w["window"] >= steady),
    }

    stats = result.stats
    # Full-run fallbacks, overridden below by steady-state numbers when
    # the windowed data supports them.
    metrics: dict = {
        "mean_response_ms": stats.mean_response_us / 1000.0,
        "throughput_qps": stats.throughput_qps,
        "result_hit_ratio": stats.result_hit_ratio,
        "list_hit_ratio": stats.list_hit_ratio,
        "combined_hit_ratio": stats.combined_hit_ratio,
        "ssd_erases": result.ssd_erases,
    }
    counters = merged["counters"]
    hists = merged["histograms"]

    response = None
    for key, h in hists.items():
        if not key.startswith("query_latency_us"):
            continue
        if response is None:
            response = h
        else:
            response.merge(h)
    if response is not None and response.count:
        metrics["mean_response_ms"] = response.sum / response.count / 1000.0
        metrics["throughput_qps"] = response.count / (response.sum / 1e6)
        metrics["p99_response_ms"] = response.percentile(99.0) / 1000.0

    r_ratio, r_lookups = _ratio(counters, "cache_result_lookups_total")
    l_ratio, l_lookups = _ratio(counters, "cache_list_lookups_total")
    if r_lookups:
        metrics["result_hit_ratio"] = r_ratio
    if l_lookups:
        metrics["list_hit_ratio"] = l_ratio
    if r_lookups + l_lookups:
        metrics["combined_hit_ratio"] = (
            r_ratio * r_lookups + l_ratio * l_lookups
        ) / (r_lookups + l_lookups)

    erases = counters.get("flash_erases_total{device=ssd-cache}")
    if erases is not None:
        metrics["ssd_erases"] = erases

    # Lifetime accumulators stay full-run: WA and GC totals only mean
    # something over the device's whole history.
    wa = tel.registry.get("flash_write_amplification", device="ssd-cache")
    if wa is not None:
        metrics["write_amplification"] = wa.value
    gc_writes = tel.registry.get("flash_gc_page_writes_total",
                                 device="ssd-cache")
    if gc_writes is not None:
        metrics["gc_page_writes"] = gc_writes.value

    from repro.obs.timeline import parse_series_key

    for key, inst in hists.items():
        name, tags = parse_series_key(key)
        if name != "stage_latency_us" or not inst.count:
            continue
        stage = tags["stage"]
        for q in _STAGE_QS:
            metrics[f"stage_{stage}_p{q:g}_us"] = inst.percentile(q)
    return {"config": scenario.to_dict(), "metrics": metrics,
            "measurement": measurement}


def _run_open_scenario(scenario: BenchScenario, index, log, cfg) -> dict:
    """Open-loop scenario: closed-loop warmup, then kernel-scheduled
    arrivals.  Response metrics include queueing delay by construction;
    saturation indicators (shed fraction, peak queue depth, bottleneck
    utilization) are first-class metrics so the gate catches capacity
    regressions, not just latency ones."""
    from repro.obs import FlightRecorder, Telemetry
    from repro.workloads.openloop import (DiurnalArrivals, PoissonArrivals,
                                          run_open_loop)
    from repro.workloads.retrieval import prepare_cached_manager, run_cached

    tel = Telemetry(trace=False, audit=False)
    timeline = tel.attach_timeline(window_us=METHODOLOGY["window_us"])
    # Counting-mode flight recorder (no out_dir): incident counts become
    # bench measurements without writing bundles into the results tree.
    flight = FlightRecorder(tel, out_dir=None,
                            config=scenario.to_dict()).arm()
    # No seed=: open scenarios have always planned with the processor's
    # default seed (closed ones pass scenario.seed); BENCH_0007 pins both.
    manager = prepare_cached_manager(
        index, log, cfg, static_analyze_queries=scenario.queries // 2,
        telemetry=tel)
    queries = list(log)
    warm = min(scenario.warmup_queries, max(0, len(queries) - 1))
    run_cached(index, log, cfg, max_queries=warm, manager=manager)
    manager.stats.reset()
    if scenario.arrival == "poisson":
        arrivals = PoissonArrivals(scenario.rate_qps, seed=scenario.seed)
    elif scenario.arrival == "diurnal":
        arrivals = DiurnalArrivals(scenario.rate_qps, seed=scenario.seed)
    else:
        raise ValueError(f"unknown arrival {scenario.arrival!r}")
    result = run_open_loop(
        manager, queries[warm:], arrivals,
        concurrency=scenario.concurrency, max_queue=scenario.max_queue,
        label=scenario.name,
    )
    timeline.finish()
    incidents = flight.finish()
    rec = getattr(tel, "blame", None)
    blame_block = None
    if rec is not None and rec.admission is not None:
        # Conservation must hold once the kernel has drained; a broken
        # ledger here means the scenario, not the gate, is wrong.
        rec.admission.check_invariants()
        cap = rec.capacity(completed=result.completed)
        per = cap["per_resource"]
        wait = sum(rec.totals.get(name, (0, 0.0, 0.0))[1] for name in per)
        service = sum(rec.totals.get(name, (0, 0.0, 0.0))[2] for name in per)
        blame_block = {
            "wait_fraction": (wait / (wait + service)
                              if wait + service > 0 else 0.0),
            "bottleneck": cap["bottleneck"],
            "knee_qps": cap["knee_qps"],
            "little_law_max_rel_err": cap["little_law_max_rel_err"],
            "little_law_ok": cap["little_law_ok"],
            "per_resource": {
                name: {"utilization": e["utilization"],
                       "mean_wait_us": e["mean_wait_us"],
                       "mean_service_us": e["mean_service_us"]}
                for name, e in per.items()
            },
        }

    stats = manager.stats
    bottleneck = max(result.utilization, key=result.utilization.get,
                     default=None)
    metrics: dict = {
        "mean_response_ms": result.mean_response_us / 1000.0,
        "throughput_qps": result.throughput_qps,
        "p99_response_ms": result.p99_us / 1000.0,
        "p999_response_ms": result.p999_us / 1000.0,
        "mean_wait_ms": result.mean_wait_us / 1000.0,
        "reject_fraction": result.reject_fraction,
        "peak_queue_depth": float(max(
            result.peak_resource_depth.values(), default=0)),
        "bottleneck_utilization": (
            result.utilization[bottleneck] if bottleneck else 0.0),
        "result_hit_ratio": stats.result_hit_ratio,
        "list_hit_ratio": stats.list_hit_ratio,
        "combined_hit_ratio": stats.combined_hit_ratio,
    }
    measurement = {
        "arrival": scenario.arrival,
        "offered_qps": scenario.rate_qps,
        "warmup_queries": warm,
        "measured_queries": len(queries) - warm,
        "completed": result.completed,
        "rejected": result.rejected,
        "bottleneck": bottleneck,
        "windows_total": len(timeline.windows),
        "incidents": incidents,
    }
    if incidents:
        measurement["incident_triggers"] = sorted(
            {m["trigger"]["detector"] for m in flight.incidents})
    entry = {"config": scenario.to_dict(), "metrics": metrics,
             "measurement": measurement}
    if blame_block is not None:
        entry["blame"] = blame_block
    return entry


def run_suite(suite: str = "smoke", progress=None) -> dict:
    """Run every scenario of ``suite``; returns the BENCH document."""
    try:
        scenarios = SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; choose from {sorted(SUITES)}"
        ) from None
    doc: dict = {"schema": BENCH_SCHEMA, "suite": suite,
                 "methodology": dict(METHODOLOGY), "scenarios": {}}
    for scenario in scenarios:
        if progress is not None:
            progress(scenario)
        doc["scenarios"][scenario.name] = run_scenario(scenario)
    return doc


def write_bench(doc: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_bench(path) -> dict:
    """Load a BENCH document, validating the schema."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(f"{path}: not a {BENCH_SCHEMA} document")
    scenarios = doc.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        raise ValueError(f"{path}: no scenarios recorded")
    for name, entry in scenarios.items():
        for fld in ("config", "metrics"):
            if fld not in entry:
                raise ValueError(f"{path}: scenario {name!r} missing {fld!r}")
        if not entry["metrics"]:
            raise ValueError(f"{path}: scenario {name!r} has no metrics")
    return doc


def next_bench_path(directory=".") -> str:
    """The next free ``BENCH_<n>.json`` path (max existing + 1)."""
    highest = -1
    for fname in os.listdir(directory):
        m = _BENCH_RE.match(fname)
        if m:
            highest = max(highest, int(m.group(1)))
    return os.path.join(directory, f"BENCH_{highest + 1:04d}.json")
