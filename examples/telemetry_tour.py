"""Telemetry tour: spans, latency histograms, and the metrics registry.

Attaches a :class:`repro.obs.Telemetry` bundle to the paper's two-level
cache, replays a query stream, and shows every exposition surface:

* the per-stage latency breakdown (where each query's microseconds went),
* exact percentiles from the log-bucketed histograms,
* cache life-cycle counters bridged from the CacheEvents bus,
* the span tree of a single query,
* the decision audit trail and `repro explain`-style verdicts,
* the flash-device telemetry bridge (erases, WA, wear projections),
* the timeline: windowed time series, steady-state detection,
  sparklines, SLO verdicts, and tail exemplars,
* the on-disk telemetry dir (spans.jsonl / metrics.json / metrics.prom
  / audit.jsonl / timeline.jsonl),
* the host profiler: wall-clock attribution by subsystem, hot-path
  counters, and flamegraph-ready collapsed stacks (`repro profile`),
* kernel blame: per-query critical-path decomposition under open-loop
  load, differential tail blame, and the capacity model (`repro blame`),
* the flight recorder: streaming SLO/anomaly verdicts over each window
  as it closes, and the incident manifest a past-the-knee overload
  appends to incidents.jsonl, its evidence read back out of the same
  directory (`repro incidents` / `repro explain --incident`).

Run:  python examples/telemetry_tour.py
"""

import tempfile

from repro import (
    CacheConfig,
    CacheManager,
    CorpusConfig,
    InvertedIndex,
    QueryLogConfig,
    build_hierarchy_for,
    generate_query_log,
)
from repro.obs import (
    DEFAULT_SLOS,
    FlightRecorder,
    Profiler,
    Telemetry,
    assemble_queries,
    blame_profiles,
    evaluate_slos,
    explain_subject,
    format_explanation,
    format_query_blame,
    format_stage_breakdown,
    load_incidents,
    run_detectors,
    sparkline,
    steady_state_window,
    window_series,
    write_telemetry_dir,
)
from repro.workloads.openloop import PoissonArrivals, run_open_loop

MB = 1024 * 1024


def main() -> None:
    index = InvertedIndex(CorpusConfig.paper_scale(200_000))
    log = generate_query_log(
        QueryLogConfig(num_queries=1_000, distinct_queries=300,
                       vocab_size=10_000, seed=1)
    )

    # One registry + one tracer, attached as a unit. Everything below is
    # observation only: outcomes are identical with telemetry=None.
    tel = Telemetry()
    tel.attach_timeline(window_us=50_000.0)  # 50 ms windows + exemplars
    cfg = CacheConfig.paper_split(mem_bytes=8 * MB, ssd_bytes=64 * MB)
    manager = CacheManager(cfg, build_hierarchy_for(cfg, index), index,
                           telemetry=tel)
    manager.warmup_static(log)
    for query in log:
        manager.process_query(query)

    # 1. Per-stage breakdown: stage sums reconcile with total response.
    print(format_stage_breakdown(tel.registry.snapshot()))
    staged = sum(inst.sum for name, tags, inst in tel.registry.items()
                 if name == "stage_latency_us")
    print(f"\nstage sum {staged / 1e3:.1f} ms vs total response "
          f"{manager.stats.total_response_us / 1e3:.1f} ms")

    # 2. Exact percentiles straight off a histogram instrument.
    print("\nquery latency percentiles by Table-I situation:")
    for name, tags, inst in tel.registry.items():
        if name == "query_latency_us":
            p50, p90, p95, p99, p999 = inst.percentiles()
            print(f"  {tags['situation']:>3s}: n={inst.count:<5d} "
                  f"p50={p50 / 1e3:.2f} ms  p99={p99 / 1e3:.2f} ms")

    # 3. Cache life-cycle counters bridged from the CacheEvents bus.
    print("\ncache event counters:")
    for name, tags, inst in tel.registry.items():
        if name.startswith("cache_") and not name.endswith("bytes_total"):
            label = ",".join(f"{k}={v}" for k, v in sorted(tags.items()))
            print(f"  {name}{{{label}}} = {inst.value}")

    # 4. The span tree of the last query.
    spans = tel.tracer.spans
    last_query = max(s.span_id for s in spans if s.name == "query")
    tree = [s for s in spans
            if s.span_id == last_query or s.parent_id == last_query]
    print("\nlast query's spans:")
    for s in sorted(tree, key=lambda s: (s.start_us, s.span_id)):
        indent = "  " if s.parent_id else ""
        print(f"  {indent}{s.name:<16s} {s.dur_us:8.1f} us  {s.attrs}")

    # 5. The decision audit trail: why is a given term (not) on the SSD?
    # Every admission (Formula 1/2, EV vs TEV), victim walk (CBLRU
    # replace-first region), and GC choice left a structured record.
    selects = [r for r in tel.audit.records if r.type == "list.select"]
    print(f"\naudit log: {len(tel.audit)} records "
          f"({len(selects)} Formula-1/2 admission decisions)")
    term = selects[-1].key
    print(format_explanation(
        explain_subject(tel.audit.records, "list", term)))

    # 6. Flash-device telemetry: FTL counters + wear projections bridged
    # into the registry (what `repro run --telemetry` tabulates).
    tel.collect()  # sample the flash bridges
    print("\nflash telemetry:")
    for name, tags, inst in tel.registry.items():
        if name.startswith("flash_"):
            print(f"  {name}{{device={tags['device']}}} = {inst.value:g}")

    # 7. The timeline: the same registry, factored over 50 ms windows.
    # Counter deltas per window sum exactly to the cumulative counters;
    # merged sub-histograms reproduce the run-level distributions.
    tel.timeline.finish()
    windows = tel.timeline.windows
    steady = steady_state_window(windows)
    print(f"\ntimeline: {len(windows)} windows of 50 ms; "
          f"steady state from window {steady}")
    for series in ("hit_ratio", "p99_response_us", "write_amp"):
        vals = [v for _, v in window_series(windows, series)]
        print(f"  {series:<16s} {sparkline(vals, width=60)}")

    # 8. SLO verdicts and anomaly detectors over those windows — what
    # `repro timeline DIR` (and `--strict` in CI) checks.
    print("\nSLOs:")
    for res in evaluate_slos(DEFAULT_SLOS, windows):
        print(f"  {res.format()}")
    anomalies = run_detectors(windows)
    print(f"anomalies: {len(anomalies)}")
    for a in anomalies[:3]:
        print(f"  {a.format()}")

    # 9. Tail exemplars: each one remembers which query (and span)
    # produced a sample above the live p99, so aggregate tail latency
    # chains back to a cause (`repro explain DIR --query N`).
    exemplars = tel.exemplars.to_dicts()
    if exemplars:
        ex = exemplars[-1]
        print(f"\ntail exemplar: {ex['metric']} = {ex['value_us']:.1f} us "
              f"(query {ex['query_id']}, span {ex['span_id']}, "
              f"window {ex['window']})")

    # 10. Export: what `repro run --telemetry DIR --timeline` writes.
    with tempfile.TemporaryDirectory() as out:
        written = write_telemetry_dir(tel, out)
        print(f"\nwrote {written['spans']} spans, {written['metrics']} "
              f"metrics, {written['audit_records']} audit records and "
              f"{written.get('timeline_windows', 0)} timeline windows "
              f"(spans.jsonl, metrics.json, metrics.prom, audit.jsonl, "
              f"timeline.jsonl)")

    # 11. Host time: all of the above measured the *simulated* system;
    # the profiler measures the *simulator*. Everything inside the
    # `profile()` section is attributed to a subsystem, hot-path
    # counters turn wall time into ns/op, and `folded_lines()` is
    # flamegraph.pl / speedscope food (what `repro profile` runs).
    profiler = Profiler()
    replay = generate_query_log(
        QueryLogConfig(num_queries=300, distinct_queries=300,
                       vocab_size=10_000, seed=2))
    with profiler.profile():
        for query in replay:
            manager.process_query(query)
    doc = profiler.summary(top=3)
    print(f"\nhost profile: {doc['wall_s'] * 1e3:.0f} ms wall for "
          f"{len(replay)} queries")
    for name, entry in sorted(doc["subsystems"].items(),
                              key=lambda kv: -kv[1]["share"])[:4]:
        print(f"  {name:<16s} {entry['share']:6.1%} of self time")
    for op, ns in sorted(doc["wall_ns_per_op"].items()):
        print(f"  {op:<20s} {doc['counters'][op]:>9,d} ops "
              f"({ns:,.0f} ns/op of wall)")
    print(f"  {len(profiler.folded_lines())} collapsed stacks ready for "
          f"flamegraph.pl")

    # 12. Kernel blame: replay under open-loop arrivals on the
    # concurrency kernel, then decompose every query's latency into
    # admission wait + per-resource queue wait + service — exactly, with
    # zero residual — and fit the capacity model (`repro blame DIR`).
    tour_tel = Telemetry(trace=False, audit=False)
    open_mgr = CacheManager(cfg, build_hierarchy_for(cfg, index), index,
                            telemetry=tour_tel)
    open_log = generate_query_log(
        QueryLogConfig(num_queries=400, distinct_queries=300,
                       vocab_size=10_000, seed=3))
    run_open_loop(open_mgr, list(open_log), PoissonArrivals(60.0, seed=4),
                  concurrency=4, max_queue=64, label="tour")
    rec = tour_tel.blame
    queries = assemble_queries(rec.records)
    worst = max(queries, key=lambda q: q.total_us)
    print(f"\nkernel blame: {len(queries)} queries decomposed, max "
          f"|residual| {max(abs(q.residual_us) for q in queries):g} us")
    print(format_query_blame(worst))
    profiles = blame_profiles(queries, tail_pct=95.0)
    print(f"tail blame verdict: {profiles['verdict']} (wait grew "
          f"{profiles['wait_growth_us'][profiles['verdict']] / 1e3:.2f} ms "
          f"tail vs median)")
    cap = rec.capacity(completed=len(queries))
    check = "ok" if cap["little_law_ok"] else "FAILED"
    print(f"capacity: bottleneck {cap['bottleneck']} at "
          f"{cap['bottleneck_utilization']:.0%}, knee ~{cap['knee_qps']:.0f} "
          f"qps, Little's-law self-check {check}")

    # 13. Flight recorder: arm the black box, push the system past the
    # knee, and an incident's manifest is appended to incidents.jsonl —
    # trigger verdict, window indices, affected qids and resources,
    # capacity snapshot, config fingerprint.  Its evidence (windows, span
    # trees, blame critical paths, audit trail) is what the directory's
    # own files already hold; load_incidents slices it back out and
    # cross-checks it (`repro incidents DIR`, `repro explain --incident N`).
    with tempfile.TemporaryDirectory() as out:
        fr_tel = Telemetry(trace=False, audit=False, out_dir=out)
        fr_tel.attach_timeline(window_us=10_000.0)
        fr_mgr = CacheManager(cfg, build_hierarchy_for(cfg, index), index,
                              telemetry=fr_tel)
        FlightRecorder(fr_tel, out_dir=out,
                       config={"tour": "past-knee"}).arm()
        run_open_loop(fr_mgr, list(open_log),
                      PoissonArrivals(3000.0, seed=5),
                      concurrency=2, max_queue=64, label="overload")
        n = write_telemetry_dir(fr_tel, out)["incidents"]
        print(f"\nflight recorder: {n} incident(s) under overload")
        for inc in load_incidents(out).incidents:  # raises if not valid
            man, counts = inc.manifest, inc.counts
            print(f"  trigger [{man['trigger']['severity']}] "
                  f"{man['trigger']['detector']} @ window "
                  f"{man['trigger_window']}: {man['trigger']['detail']}")
            print(f"  evidence: {counts['windows']} windows, "
                  f"{counts['spans']} spans, {counts['blame_queries']} "
                  f"blame queries, fingerprint "
                  f"{man['config']['fingerprint']}")


if __name__ == "__main__":
    main()
