"""Command-line interface.

The subcommands cover the common standalone uses of the library::

    repro corpus   --docs 1000000                 # corpus statistics
    repro trace    --requests 50000 --out t.spc   # synthetic trace + analysis
    repro analyze  t.spc --format spc             # analyze an existing trace
    repro run      --policy cbslru --queries 5000 # full cached retrieval run
    repro run      ... --telemetry out/           # + spans, metrics, audit dump
    repro run      ... --telemetry out/ --timeline  # + windowed time series
    repro report   out/                           # re-read a telemetry dir
    repro timeline out/                           # sparklines + SLO verdicts
    repro explain  out/ --term 123                # why is term 123 (not) on SSD?
    repro explain  out/ --query 17                # trace a tail latency exemplar
    repro compare  --queries 5000                 # all policies side by side
    repro compare  out-a/ out-b/                  # compare saved telemetry dirs
    repro bench    --suite smoke                  # deterministic benchmark run
    repro bench    --suite smoke --against BENCH_0007.json  # regression gate
    repro profile  --suite smoke --top 15         # host-time attribution
    repro profile  --folded profile.folded --out profile.json  # flamegraph data

Install exposes ``repro`` as a console entry point; ``python -m
repro.cli`` works without installation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

import numpy as np

from repro.analysis.tables import format_table

__all__ = ["main", "build_parser"]

MB = 1024 * 1024


def _checked(cast, ok, what: str):
    """An argparse ``type=``: ``cast(text)``, rejected unless ``ok``."""
    def parse(text: str):
        if not ok(value := cast(text)):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value
    parse.__name__ = cast.__name__  # argparse's "invalid int value" wording
    return parse


_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_SIZE = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _checked(float, lambda v: v > 0, "> 0")
_NON_NEGATIVE = _checked(float, lambda v: v >= 0, ">= 0")
_FRACTION = _checked(float, lambda v: 0 < v <= 1, "in (0, 1]")
_PERCENTILE = _checked(float, lambda v: 0 < v < 100, "in (0, 100)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSD-based hybrid storage architecture for search engines "
                    "(ICPP 2012 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("corpus", help="generate and summarise a synthetic corpus")
    p.add_argument("--docs", type=int, default=1_000_000)
    p.add_argument("--vocab", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("trace", help="generate a synthetic web-search trace")
    p.add_argument("--requests", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--out", type=str, default=None,
                   help="write the trace (format by extension: .spc, .csv "
                        "(MSR), .dmn (DiskMon))")

    p = sub.add_parser("analyze", help="analyze an I/O trace file")
    p.add_argument("path", type=str)
    p.add_argument("--format", choices=("spc", "msr", "diskmon"), default="spc")

    p = sub.add_parser("run", help="run a cached retrieval experiment")
    p.add_argument("--policy", choices=("lru", "cblru", "cbslru"),
                   default="cbslru")
    p.add_argument("--docs", type=_COUNT, default=1_000_000)
    p.add_argument("--queries", type=_COUNT, default=4_000)
    p.add_argument("--mem-mb", type=_SIZE, default=16)
    p.add_argument("--ssd-mb", type=_SIZE, default=64)
    p.add_argument("--ttl-ms", type=_NON_NEGATIVE, default=0.0,
                   help="dynamic scenario: data TTL in milliseconds (0=static)")
    p.add_argument("--three-level", action="store_true",
                   help="enable the intersection cache (Long & Suel [19])")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--arrival", choices=("closed", "poisson", "diurnal"),
                   default="closed",
                   help="arrival process: closed-loop replay (default) or "
                        "open-loop Poisson/diurnal arrivals on the "
                        "discrete-event kernel")
    p.add_argument("--concurrency", type=_COUNT, default=1,
                   help="max in-flight queries (closed: number of "
                        "clients, each an admitted kernel task per query; "
                        "1 = the synchronous loop; open-loop: admission "
                        "limit)")
    p.add_argument("--rate-qps", type=_POSITIVE, default=None,
                   help="offered arrival rate (poisson) or peak rate "
                        "(diurnal); required for open-loop arrivals")
    p.add_argument("--max-queue", type=_SIZE, default=64,
                   help="admission wait-queue bound; arrivals beyond "
                        "concurrency + max-queue are shed (open-loop)")
    p.add_argument("--cpu-lanes", type=_COUNT, default=1,
                   help="CPU units per server for the kernel's scoring "
                        "resource")
    p.add_argument("--diurnal-period-s", type=_POSITIVE, default=10.0,
                   help="compressed diurnal cycle length in simulated "
                        "seconds")
    p.add_argument("--diurnal-floor", type=_FRACTION, default=0.2,
                   help="night-time rate as a fraction of the peak")
    p.add_argument("--telemetry", type=str, default=None, metavar="DIR",
                   help="collect telemetry and write it to DIR "
                        "(spans.jsonl, metrics.json, metrics.prom, "
                        "audit.jsonl; timeline.jsonl with --timeline; "
                        "blame.jsonl and incident-<n>/ in kernel modes)")
    p.add_argument("--timeline", action="store_true",
                   help="stream windowed time series to DIR/timeline.jsonl "
                        "(requires --telemetry)")
    p.add_argument("--window-ms", type=_POSITIVE, default=50.0,
                   help="timeline window width in virtual-clock "
                        "milliseconds (default 50)")
    p.add_argument("--no-flight", action="store_true",
                   help="disable the flight recorder (kernel-mode runs "
                        "with --timeline arm it by default)")
    p.add_argument("--incident-severity", choices=("warn", "critical"),
                   default="critical",
                   help="anomaly severity that opens an incident bundle "
                        "(default critical)")

    p = sub.add_parser("report",
                       help="print the per-stage breakdown of a telemetry dir")
    p.add_argument("dir", type=str,
                   help="directory written by `repro run --telemetry`")
    p.add_argument("--format", choices=("text", "openmetrics"),
                   default="text",
                   help="'openmetrics' dumps the metrics snapshot as "
                        "OpenMetrics text exposition instead of the "
                        "human report")

    p = sub.add_parser("timeline",
                       help="render a timeline.jsonl as sparkline charts "
                            "with SLO verdicts and anomalies")
    p.add_argument("path", type=str,
                   help="telemetry dir (timeline.jsonl inside) or a "
                        "timeline.jsonl file")
    p.add_argument("--series", action="append", default=None,
                   help="series to chart (repeatable; default: every "
                        "derived series with data)")
    p.add_argument("--slo", action="append", default=None, metavar="SPEC",
                   help="SLO spec like 'p99_response_us < 100000 @ 95%%' "
                        "(repeatable; default: the built-in set)")
    p.add_argument("--width", type=_COUNT, default=60,
                   help="sparkline width in characters")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero when an SLO is violated or a "
                        "critical anomaly fires")

    p = sub.add_parser("blame",
                       help="per-query critical-path attribution and "
                            "capacity model from a kernel run's blame "
                            "records")
    p.add_argument("path", type=str,
                   help="telemetry dir (blame.jsonl inside) or a "
                        "blame.jsonl file")
    p.add_argument("--tail-pct", type=_PERCENTILE, default=99.0,
                   help="percentile cut for the tail cohort (default 99)")
    p.add_argument("--query", type=int, default=None, metavar="QID",
                   help="also print one query's full decomposition "
                        "(by qid tag, falling back to task name q<QID>)")
    p.add_argument("--top", type=int, default=5,
                   help="slowest queries to list individually (default 5)")

    p = sub.add_parser("explain",
                       help="reconstruct one subject's decision history from "
                            "an audit trail")
    p.add_argument("path", type=str,
                   help="telemetry dir (audit.jsonl inside) or an audit.jsonl "
                        "file")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--term", type=int, default=None,
                   help="explain an inverted list by term id")
    g.add_argument("--rb", type=int, default=None,
                   help="explain an SSD result block by RB id")
    g.add_argument("--gc-block", type=int, default=None,
                   help="explain a flash block's GC victim selections")
    g.add_argument("--query", type=int, default=None,
                   help="trace a tail-latency exemplar for this query id "
                        "(needs a dir written with --timeline)")
    g.add_argument("--incident", type=int, default=None, metavar="N",
                   help="walk flight-recorder incident bundle N end to "
                        "end (trigger, SLO state, blame, evidence)")
    p.add_argument("--at-us", type=float, default=None,
                   help="reconstruct state as of this virtual-clock time")

    p = sub.add_parser("top",
                       help="run dashboard: sparklines, SLO status and "
                            "incidents from a telemetry dir, finished or "
                            "still being written")
    p.add_argument("dir", type=str,
                   help="directory written by `repro run --telemetry DIR "
                        "--timeline`")
    p.add_argument("--once", action="store_true",
                   help="render one frame and exit (CI-friendly)")
    p.add_argument("--interval", type=_POSITIVE, default=2.0,
                   help="refresh interval in seconds (default 2)")
    p.add_argument("--width", type=_COUNT, default=60,
                   help="sparkline width in characters")

    p = sub.add_parser("incidents",
                       help="list and validate flight-recorder incident "
                            "bundles under a telemetry dir")
    p.add_argument("dir", type=str)
    p.add_argument("--require", type=int, default=None, metavar="N",
                   help="exit non-zero unless at least N valid bundles "
                        "are present")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON document")

    p = sub.add_parser("compare",
                       help="run all three policies and emit a markdown "
                            "report (or compare saved telemetry dirs)")
    p.add_argument("dirs", nargs="*", default=[],
                   help="telemetry dirs to compare instead of running "
                        "the policies")
    p.add_argument("--docs", type=int, default=1_000_000)
    p.add_argument("--queries", type=int, default=4_000)
    p.add_argument("--mem-mb", type=int, default=16)
    p.add_argument("--ssd-mb", type=int, default=64)
    p.add_argument("--out", type=str, default=None,
                   help="write the report to a file")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON document instead of "
                        "markdown")
    p.add_argument("--seed", type=int, default=7)

    p = sub.add_parser("bench",
                       help="run a deterministic benchmark suite and emit "
                            "BENCH_<n>.json")
    p.add_argument("--suite", choices=("smoke", "full", "saturation"),
                   default="smoke")
    p.add_argument("--out", type=str, default=None,
                   help="output path (default: next free BENCH_<n>.json)")
    p.add_argument("--against", type=str, default=None, metavar="PREV.json",
                   help="gate against a previous BENCH document; exits "
                        "non-zero on regression")

    p = sub.add_parser("profile",
                       help="profile host wall-clock time over a bench "
                            "suite's closed-loop scenarios")
    p.add_argument("--suite", choices=("smoke", "full", "saturation"),
                   default="smoke")
    p.add_argument("--top", type=int, default=15,
                   help="functions to keep in the top-N table")
    p.add_argument("--folded", type=str, default=None, metavar="PATH",
                   help="write Brendan-Gregg collapsed stacks to PATH "
                        "(render with flamegraph.pl or speedscope)")
    p.add_argument("--out", type=str, default=None, metavar="PATH",
                   help="write the repro.obs.profile/v1 JSON summary to PATH")
    p.add_argument("--json", action="store_true",
                   help="print the JSON summary instead of the scoreboard")
    return parser


class _CliError(Exception):
    """A command cannot go on: ``main`` prints ``error: <message>`` and
    exits 2."""


def _load(loader, path, what: str | None = None, hint: str = ""):
    """``loader(path)``: how every read command parses an artifact.

    A ``ValueError``/``OSError`` becomes the one ``error: PATH: WHAT
    (EXC)HINT`` line and exit status 2; each file behind the result that
    lost a torn trailing record gets its ``note:`` line.
    """
    try:
        loaded = loader(path)
    except (ValueError, OSError) as exc:
        raise _CliError(f"{path}: {what} ({exc}){hint}" if what
                        else f"{path}: {exc}") from None
    _note_torn(loaded)
    return loaded


def _note_torn(loaded) -> None:
    for part in getattr(loaded, "parts", [loaded]):
        if getattr(part, "torn_tail", 0):
            print(f"note: {part.path}: skipped {part.torn_tail} torn "
                  f"trailing record(s) (run cut mid-write)", file=sys.stderr)


def _telemetry_file(path: str, name: str) -> str:
    """``path`` itself, or ``path/name`` when it is a telemetry dir."""
    return os.path.join(path, name) if os.path.isdir(path) else path


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.engine.corpus import CorpusConfig, build_corpus_stats
    from repro.engine.postings import POSTING_BYTES

    stats = build_corpus_stats(
        CorpusConfig(num_docs=args.docs, vocab_size=args.vocab,
                     avg_doc_len=300, seed=args.seed)
    )
    sizes = stats.doc_freqs * POSTING_BYTES
    rows = [
        ["documents", f"{args.docs:,}"],
        ["vocabulary", f"{args.vocab:,}"],
        ["index size", f"{sizes.sum() / 1e6:.1f} MB"],
        ["largest list", f"{sizes.max() / 1024:.0f} KB"],
        ["median list", f"{np.median(sizes) / 1024:.1f} KB"],
        ["mean utilization", f"{stats.utilization.mean():.1%}"],
    ]
    print(format_table(["metric", "value"], rows, title="corpus statistics"))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.trace.analyzer import analyze_trace
    from repro.trace.generator import WebSearchTraceConfig, generate_websearch_trace

    trace = generate_websearch_trace(
        WebSearchTraceConfig(num_requests=args.requests, seed=args.seed)
    )
    print(analyze_trace(trace).summary())
    if args.out:
        _write_by_extension(trace, args.out)
        print(f"wrote {len(trace)} requests to {args.out}")
    return 0


def _write_by_extension(trace, path: str) -> None:
    from repro.trace.diskmon import write_diskmon
    from repro.trace.msr import write_msr
    from repro.trace.umass import write_spc

    if path.endswith(".spc"):
        write_spc(trace, path)
    elif path.endswith(".csv"):
        write_msr(trace, path)
    elif path.endswith(".dmn"):
        write_diskmon(trace, path)
    else:
        raise SystemExit(f"unknown trace extension on {path!r} "
                         "(want .spc, .csv or .dmn)")


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.trace.analyzer import analyze_trace
    from repro.trace.diskmon import parse_diskmon
    from repro.trace.msr import parse_msr
    from repro.trace.umass import parse_spc

    parsers = {"spc": parse_spc, "msr": parse_msr, "diskmon": parse_diskmon}
    trace = parsers[args.format](args.path)
    print(analyze_trace(trace).summary())
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    if args.timeline and not args.telemetry:
        raise _CliError("--timeline requires --telemetry DIR")
    if args.arrival != "closed" and args.rate_qps is None:
        raise _CliError("open-loop arrivals need --rate-qps > 0")
    telemetry = None
    if args.telemetry:
        from repro.obs import Telemetry

        # Spans, windows and (once a kernel is observed) blame records
        # stream into the directory as they finish: an arbitrarily long
        # run holds none of them resident.
        telemetry = Telemetry(out_dir=args.telemetry)
        if args.timeline:
            telemetry.attach_timeline(window_us=args.window_ms * 1000.0)

    # Kernel-mode runs with a timeline arm the flight recorder: a
    # black-box ring over the run that dumps incident-<n>/ bundles when
    # a streaming detector fires at trigger severity.
    flight = None
    kernel_mode = args.arrival != "closed" or args.concurrency > 1
    if (telemetry is not None and args.timeline and kernel_mode
            and not args.no_flight):
        from repro.obs import FlightRecorder

        flight = FlightRecorder(
            telemetry,
            out_dir=args.telemetry,
            trigger_severity=args.incident_severity,
            config={
                "policy": args.policy, "docs": args.docs,
                "queries": args.queries, "mem_mb": args.mem_mb,
                "ssd_mb": args.ssd_mb, "arrival": args.arrival,
                "rate_qps": args.rate_qps,
                "concurrency": args.concurrency,
                "max_queue": args.max_queue, "seed": args.seed,
                "window_ms": args.window_ms,
            },
        ).arm()
    return _run_serve_and_report(args, telemetry, flight)


def _run_serve_and_report(args: argparse.Namespace, telemetry,
                          flight) -> int:
    from repro.core.config import CacheConfig, Policy
    from repro.workloads.openloop import (DiurnalArrivals, PoissonArrivals,
                                          run_open_loop)
    from repro.workloads.retrieval import prepare_cached_manager, run_cached
    from repro.workloads.sweep import make_log_for, make_scaled_index

    arrivals = None
    if args.arrival == "poisson":
        arrivals = PoissonArrivals(args.rate_qps, seed=args.seed)
    elif args.arrival == "diurnal":
        arrivals = DiurnalArrivals(
            args.rate_qps, period_s=args.diurnal_period_s,
            floor_fraction=args.diurnal_floor, seed=args.seed)
    index = make_scaled_index(args.docs)
    log = make_log_for(args.queries, seed=args.seed)
    cfg = CacheConfig.paper_split(
        args.mem_mb * MB, args.ssd_mb * MB,
        policy=Policy(args.policy),
        ttl_us=args.ttl_ms * 1000.0,
    )
    manager = prepare_cached_manager(index, log, cfg, telemetry=telemetry,
                                     three_level=args.three_level)
    open_result = None
    if arrivals is None and args.concurrency == 1:
        # The seed's synchronous loop, byte-for-byte (golden parity); a
        # kernel task per query would cost more than the query itself.
        run_cached(index, log, cfg, manager=manager)
    else:
        # One admitted, qid-tagged kernel task per query; arrivals=None is
        # --concurrency closed-loop clients.
        open_result = run_open_loop(
            manager, log, arrivals,
            concurrency=args.concurrency, max_queue=args.max_queue,
            cpu_lanes=args.cpu_lanes,
            label=f"{args.policy}-{args.arrival}",
        )

    stats = manager.stats
    rows = [
        ["queries", stats.queries],
        ["result hit ratio", f"{stats.result_hit_ratio:.1%}"],
        ["list hit ratio", f"{stats.list_hit_ratio:.1%}"],
        ["combined hit ratio", f"{stats.combined_hit_ratio:.1%}"],
        ["mean response", f"{stats.mean_response_us / 1000:.2f} ms"],
        ["throughput", f"{stats.throughput_qps:.1f} q/s"],
        ["SSD erasures", manager.ssd.erase_count if manager.ssd else 0],
    ]
    if args.ttl_ms > 0:
        rows.append(["expired (results/lists)",
                     f"{stats.expired_results}/{stats.expired_lists}"])
    if args.three_level:
        inter = manager.intersections  # type: ignore[attr-defined]
        rows.append(["intersection hits", inter.hits])
    print(format_table(["metric", "value"], rows,
                       title=f"{args.policy.upper()} on {args.docs:,} docs"))
    if open_result is not None:
        r = open_result
        bottleneck = max(r.utilization, key=r.utilization.get, default=None)
        title = f"closed-loop, {r.concurrency} clients"
        open_rows = [["arrival process", r.arrival]]
        if arrivals is not None:
            title = (f"open-loop @ {r.offered_qps:g} q/s, "
                     f"concurrency {r.concurrency}")
            open_rows.append(["offered rate", f"{r.offered_qps:.1f} q/s"])
        open_rows += [
            ["served throughput", f"{r.throughput_qps:.1f} q/s"],
            ["arrived / completed / shed",
             f"{r.arrived} / {r.completed} / {r.rejected}"],
            ["mean response", f"{r.mean_response_us / 1000:.2f} ms"],
            ["p99 / p999 response",
             f"{r.p99_us / 1000:.2f} / {r.p999_us / 1000:.2f} ms"],
            ["mean admission wait", f"{r.mean_wait_us / 1000:.2f} ms"],
            ["peak in-flight", r.peak_inflight],
        ]
        if bottleneck is not None:
            open_rows.append(
                ["bottleneck",
                 f"{bottleneck} ({r.utilization[bottleneck]:.0%} busy, "
                 f"peak queue {r.peak_resource_depth[bottleneck]})"])
        print()
        print(format_table(["metric", "value"], open_rows, title=title))
    if telemetry is not None:
        from repro.obs import format_stage_breakdown, write_telemetry_dir

        print()
        print(format_stage_breakdown(telemetry.registry,
                                     title="per-stage latency"))
        written = write_telemetry_dir(telemetry, args.telemetry)
        flash_rows = _flash_rows(telemetry.registry)
        if flash_rows:
            print()
            print(format_table(
                ["device", "erases", "WA", "free blocks", "wear skew",
                 "life used"],
                flash_rows, title="flash devices"))
        print(f"\nwrote {written['spans']} spans, {written['metrics']} "
              f"metrics and {written['audit_records']} audit records "
              f"to {args.telemetry}/")
        if written["dropped_spans"]:
            print(f"({written['dropped_spans']} spans dropped past the cap)")
        if written.get("blame_records"):
            print(f"blame: {written['blame_records']} kernel records -> "
                  f"{args.telemetry}/blame.jsonl "
                  f"(see `repro blame {args.telemetry}`)")
        if args.timeline:
            from repro.obs import steady_state_window

            timeline = telemetry.timeline
            steady = steady_state_window(timeline.windows)
            n_ex = len(telemetry.exemplars.exemplars)
            steady_txt = (f"steady from window {steady}"
                          if steady is not None else "no steady state")
            print(f"timeline: {timeline.emitted} windows x "
                  f"{args.window_ms:g} ms, {n_ex} exemplars, {steady_txt} "
                  f"-> {args.telemetry}/timeline.jsonl")
        if flight is not None:
            n = flight.finish()  # idempotent; write_telemetry_dir flushed
            if n:
                trig = flight.incidents[-1]["trigger"]
                print(f"flight recorder: {n} incident bundle(s) -> "
                      f"{args.telemetry}/incident-*/ (latest trigger "
                      f"[{trig['severity']}] {trig['detector']}; see "
                      f"`repro incidents {args.telemetry}`)")
            else:
                print("flight recorder: armed, no incidents")
    return 0


def _flash_rows(registry) -> list[list]:
    """One table row per flash device seen in the registry."""
    devices = sorted({
        tags["device"] for name, tags, _ in registry.items()
        if name == "flash_erases_total"
    })
    rows = []
    for dev in devices:
        def val(metric: str, default=0.0):
            inst = registry.get(metric, device=dev)
            return inst.value if inst is not None else default

        rows.append([
            dev,
            int(val("flash_erases_total")),
            f"{val('flash_write_amplification'):.2f}",
            int(val("flash_free_blocks")),
            f"{val('flash_wear_skew'):.2f}",
            f"{val('flash_lifetime_consumed'):.2%}",
        ])
    return rows


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs import (
        format_stage_breakdown,
        load_telemetry_dir,
        openmetrics_text,
    )

    loaded = _load(load_telemetry_dir, args.dir,
                   "not a usable telemetry directory")
    snapshot = loaded.metrics
    if args.format == "openmetrics":
        sys.stdout.write(openmetrics_text(snapshot))
        return 0
    print(format_stage_breakdown(
        snapshot, title=f"per-stage latency ({args.dir})"))
    line = (f"\n{len(loaded.spans.spans)} spans, "
            f"{len(snapshot['metrics'])} metrics")
    if loaded.timeline is not None:
        line += (f", {len(loaded.timeline.windows)} timeline windows "
                 f"(see `repro timeline {args.dir}`)")
    print(line)
    lost = [f"{m['value']} {m['tags']['what']}" for m in snapshot["metrics"]
            if m["name"] == "obs_dropped_total"]
    if lost:
        print(f"observer losses (obs_dropped_total): {', '.join(lost)}")
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.obs import (
        DEFAULT_SLOS,
        evaluate_slos,
        load_timeline_jsonl,
        parse_slo,
        run_detectors,
        sparkline,
        steady_state_window,
        window_series,
    )
    from repro.obs.timeline import DERIVED_SERIES

    path = _telemetry_file(args.path, "timeline.jsonl")
    tl = _load(load_timeline_jsonl, path, "not a usable timeline",
               "; record one with `repro run --telemetry DIR --timeline`")
    if not tl.windows:
        raise _CliError(f"{path}: timeline holds no windows")

    first = tl.windows[0]["window"]
    last = tl.windows[-1]["window"]
    print(f"timeline: {len(tl.windows)} windows x {tl.window_us / 1000:g} ms "
          f"(windows {first}..{last}, {len(tl.exemplars)} exemplars)")
    steady = steady_state_window(tl.windows)
    if steady is not None:
        print(f"steady state from window {steady} "
              f"(t = {steady * tl.window_us / 1e6:.2f} s)")
    else:
        print("steady state: never reached")
    print()

    names = args.series or [s for s in DERIVED_SERIES
                            if window_series(tl.windows, s)]
    label_w = max((len(n) for n in names), default=0)
    for name in names:
        pts = window_series(tl.windows, name)
        if not pts:
            print(f"{name:<{label_w}}  (no data)")
            continue
        by_window = dict(pts)
        values = [by_window.get(w) for w in range(first, last + 1)]
        vals = [v for v in values if v is not None]
        print(f"{name:<{label_w}}  {sparkline(values, width=args.width)}  "
              f"min {min(vals):g}  max {max(vals):g}  last {vals[-1]:g}")
    print()

    try:
        slos = [parse_slo(s) for s in args.slo] if args.slo \
            else list(DEFAULT_SLOS)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    results = evaluate_slos(slos, tl.windows)
    print("SLOs:")
    for res in results:
        print(f"  {res.format()}")
    anomalies = run_detectors(tl.windows)
    if anomalies:
        # Critical anomalies always print; warnings are capped so a
        # noisy sparse run doesn't scroll the verdicts off the screen.
        critical = [a for a in anomalies if a.severity == "critical"]
        warns = [a for a in anomalies if a.severity != "critical"]
        shown = critical + warns[: max(0, 10 - len(critical))]
        print(f"anomalies: {len(anomalies)} "
              f"({len(critical)} critical, {len(warns)} warn)")
        for a in sorted(shown, key=lambda a: (a.window, a.detector)):
            print(f"  {a.format()}")
        if len(shown) < len(anomalies):
            print(f"  ... and {len(anomalies) - len(shown)} more")
    else:
        print("anomalies: none")

    if args.strict and (any(r.verdict == "violated" for r in results)
                        or any(a.severity == "critical" for a in anomalies)):
        return 1
    return 0


def _match_blame_query(queries, query_id: int):
    """Blame entries for one query id.

    The ``qid`` tag is authoritative — it is the same counter exemplars
    and spans carry.  The ``q<N>`` task name falls back for runs whose
    recorder predates tagging (shed arrivals offset names from qids).
    """
    match = [q for q in queries if q.qid == query_id]
    if not match:
        match = [q for q in queries
                 if q.qid is None and q.name == f"q{query_id}"]
    return match


def _cmd_blame(args: argparse.Namespace) -> int:
    from repro.obs import (
        assemble_queries,
        blame_profiles,
        capacity_model,
        format_blame_report,
        format_query_blame,
        load_blame_jsonl,
    )

    path = _telemetry_file(args.path, "blame.jsonl")
    log = _load(load_blame_jsonl, path, "not a usable blame file",
                "; record one with `repro run --arrival poisson ... "
                "--telemetry DIR`")
    queries = assemble_queries(log.records)
    if not queries:
        raise _CliError(f"{path}: no completed queries recorded")

    profiles = blame_profiles(queries, tail_pct=args.tail_pct)
    footer = log.footer or {}
    horizon = footer.get("end_us", 0.0) - footer.get("start_us", 0.0)
    completed = footer.get("completed", len(queries))
    capacity = capacity_model(log.resources, horizon, completed=completed)
    print(format_blame_report(queries, profiles, capacity))

    if args.top > 0:
        print(f"\nslowest {min(args.top, len(queries))} queries:")
        for q in sorted(queries, key=lambda q: -q.total_us)[:args.top]:
            wait = q.admission_wait_us + sum(q.wait_us.values())
            top_res = max(q.wait_us, key=q.wait_us.get, default=None)
            line = (f"  task {q.task} ({q.name}"
                    + (f", qid {q.qid}" if q.qid is not None else "")
                    + f"): {q.total_us / 1000:.2f} ms, "
                    f"{wait / q.total_us:.0%} waiting")
            if top_res is not None:
                line += f" (mostly {top_res})"
            if q.straggler:
                line += f", straggler {q.straggler}"
            print(line)

    if args.query is not None:
        match = _match_blame_query(queries, args.query)
        print()
        if not match:
            print(f"query {args.query}: no blame record (qid tag or task "
                  f"name q{args.query})")
            return 1
        for q in match:
            print(format_query_blame(q))
    if not capacity.get("little_law_ok", True):
        print("\nwarning: Little's-law self-check failed — the blame "
              "instrumentation disagrees with the kernel's depth "
              "accounting", file=sys.stderr)
        return 1
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.report import policy_comparison_report
    from repro.core.config import CacheConfig, Policy
    from repro.obs import Telemetry, format_stage_comparison
    from repro.workloads.retrieval import run_cached
    from repro.workloads.sweep import make_log_for, make_scaled_index

    if args.dirs:
        return _compare_dirs(args)

    from repro.obs import HOT

    index = make_scaled_index(args.docs)
    log = make_log_for(args.queries, seed=args.seed)
    results = {}
    registries = {}
    timelines = {}
    host = {}
    for policy in (Policy.LRU, Policy.CBLRU, Policy.CBSLRU):
        cfg = CacheConfig.paper_split(args.mem_mb * MB, args.ssd_mb * MB,
                                      policy=policy)
        tel = Telemetry(trace=False, audit=False)
        timeline = tel.attach_timeline(window_us=50_000.0)
        hot_before = HOT.snapshot()
        results[policy.value] = run_cached(
            index, log, cfg, static_analyze_queries=args.queries // 2,
            telemetry=tel,
        )
        host[policy.value] = {"hot_ops": HOT.delta(hot_before)}
        timeline.finish()  # also samples the flash bridges (collect)
        registries[policy.value] = tel.registry
        timelines[policy.value] = list(timeline.windows)

    if args.json:
        payload = _compare_payload(results, registries)
        payload["timeline"] = _compare_timelines(timelines)
        payload["host"] = host
        report = json.dumps(payload, indent=1, sort_keys=True)
    else:
        report = policy_comparison_report(
            results, title=f"Policy comparison on {args.docs:,} docs"
        )
        report += "\n\n" + format_stage_comparison(
            registries, title="per-stage latency by policy"
        )
        report += "\n\n" + _hot_ops_table(host)
        flash_rows = [
            [policy] + row[1:]
            for policy, registry in registries.items()
            for row in _flash_rows(registry)
            if row[0] == "ssd-cache"
        ]
        if flash_rows:
            report += "\n\n" + format_table(
                ["policy", "erases", "WA", "free blocks", "wear skew",
                 "life used"],
                flash_rows, title="flash telemetry (ssd-cache)")
        report += "\n\n" + _timeline_table(timelines)
    print(report)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report)
            fh.write("\n")
        print(f"wrote report to {args.out}")
    return 0


def _hot_ops_table(host: dict) -> str:
    """Exact hot-path operation counts per policy (host work, not time)."""
    rows = [
        [policy,
         f"{h['hot_ops']['ftl_map_lookups']:,}",
         f"{h['hot_ops']['lru_node_moves']:,}",
         f"{h['hot_ops']['postings_decoded']:,}"]
        for policy, h in host.items()
    ]
    return format_table(
        ["policy", "ftl lookups", "lru moves", "postings"],
        rows, title="hot-path operations (host time: see hostbench/)")


def _compare_timelines(timelines: dict) -> dict:
    """The per-policy timeline section of the compare JSON payload."""
    from repro.obs import steady_state_window, window_series

    out = {}
    for policy, windows in timelines.items():
        out[policy] = {
            "windows": len(windows),
            "steady_window": steady_state_window(windows),
            "hit_ratio": [v for _, v in window_series(windows, "hit_ratio")],
            "p99_response_us": [
                v for _, v in window_series(windows, "p99_response_us")],
        }
    return out


def _timeline_table(timelines: dict) -> str:
    """Warmup columns: hit-ratio trajectory and steady-state onset."""
    from repro.obs import sparkline, steady_state_window, window_series

    rows = []
    for policy, windows in timelines.items():
        pts = window_series(windows, "hit_ratio")
        steady = steady_state_window(windows)
        rows.append([
            policy,
            len(windows),
            steady if steady is not None else "-",
            sparkline([v for _, v in pts], width=30) or "-",
            f"{pts[-1][1]:.1%}" if pts else "-",
        ])
    return format_table(
        ["policy", "windows", "steady@", "hit ratio over time", "final"],
        rows, title="timeline (50 ms windows)")


def _compare_dirs(args: argparse.Namespace) -> int:
    """Compare previously-written telemetry dirs side by side."""
    from repro.obs import (
        load_telemetry_dir,
        sparkline,
        steady_state_window,
        sub_histogram,
        window_series,
    )

    rows = []
    for d in args.dirs:
        loaded = _load(load_telemetry_dir, d,
                       "not a usable telemetry directory")
        snapshot = loaded.metrics
        queries = sum(
            m["value"] for m in snapshot["metrics"]
            if m["name"] == "queries_total")
        mean_ms = p99_ms = None
        # A snapshot histogram carries the same fields as a sub-histogram.
        hists = [sub_histogram(m) for m in snapshot["metrics"]
                 if m["name"] == "query_latency_us"
                 and m["kind"] == "histogram" and m["count"]]
        if hists:
            for h in hists[1:]:
                hists[0].merge(h)
            mean_ms = hists[0].mean / 1000.0
            p99_ms = hists[0].percentile(99.0) / 1000.0
        spark = steady = "-"
        if loaded.timeline is not None:
            windows = loaded.timeline.windows
            pts = window_series(windows, "hit_ratio")
            spark = sparkline([v for _, v in pts], width=24) or "-"
            s = steady_state_window(windows)
            steady = s if s is not None else "-"
        rows.append([
            d,
            int(queries),
            f"{mean_ms:.2f}" if mean_ms is not None else "-",
            f"{p99_ms:.2f}" if p99_ms is not None else "-",
            steady,
            spark,
        ])
    print(format_table(
        ["dir", "queries", "mean ms", "p99 ms", "steady@", "hit ratio"],
        rows, title="telemetry dirs"))
    return 0


def _compare_payload(results: dict, registries: dict) -> dict:
    """The `repro compare --json` document (schema repro.compare/v1)."""
    payload: dict = {"schema": "repro.compare/v1", "policies": {}}
    for policy, result in results.items():
        registry = registries[policy]
        stats = result.stats
        stages = {}
        for name, tags, inst in registry.items():
            if name == "stage_latency_us" and inst.kind == "histogram" \
                    and inst.count:
                stages[tags["stage"]] = {
                    "p50_us": inst.percentile(50.0),
                    "p99_us": inst.percentile(99.0),
                    "mean_us": inst.mean,
                    "count": inst.count,
                }
        flash = {}
        for name, tags, inst in registry.items():
            if name.startswith("flash_"):
                flash.setdefault(tags["device"], {})[name] = inst.value
        payload["policies"][policy] = {
            "queries": result.queries,
            "mean_response_ms": result.mean_response_ms,
            "throughput_qps": result.throughput_qps,
            "result_hit_ratio": stats.result_hit_ratio,
            "list_hit_ratio": stats.list_hit_ratio,
            "combined_hit_ratio": stats.combined_hit_ratio,
            "ssd_erases": result.ssd_erases,
            "stage_latency_us": stages,
            "flash": flash,
        }
    return payload


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import explain_subject, format_explanation, load_audit_jsonl

    if args.incident is not None:
        return _explain_incident(args.path, args.incident)
    if args.query is not None:
        return _explain_query(args.path, args.query)
    path = _telemetry_file(args.path, "audit.jsonl")
    if not os.path.exists(path):
        raise _CliError(f"no audit trail at {path} "
                        "(run with --telemetry and auditing enabled)")
    records = _load(load_audit_jsonl, path, "not a usable audit trail").records
    if args.term is not None:
        kind, key = "list", args.term
    elif args.rb is not None:
        kind, key = "rb", args.rb
    else:
        kind, key = "gc", args.gc_block
    explanation = explain_subject(records, kind, key, at_us=args.at_us)
    print(format_explanation(explanation))
    return 0 if explanation["events"] else 1


def _explain_query(dir_path: str, query_id: int) -> int:
    """Chain a tail-latency exemplar to its span tree and audit records."""
    from repro.obs import (assemble_queries, format_query_blame,
                           load_telemetry_dir)

    if not os.path.isdir(dir_path):
        raise _CliError(f"{dir_path}: --query needs a telemetry directory "
                        f"(written by `repro run --telemetry DIR --timeline`)")
    timeline_path = os.path.join(dir_path, "timeline.jsonl")
    if not os.path.exists(timeline_path):
        raise _CliError(f"{timeline_path} missing; exemplars are recorded by "
                        f"`repro run --telemetry {dir_path} --timeline`")
    # Load everything before printing anything: a torn final line (run
    # killed mid-write) is skipped and noted, anything worse is one
    # error line instead of a traceback or half a report.
    loaded = _load(load_telemetry_dir, dir_path,
                   "not a usable telemetry directory")
    exemplars = [e for e in loaded.timeline.exemplars
                 if e.get("query_id") == query_id]
    audit = loaded.audit.records if loaded.audit is not None else []

    # Kernel blame decomposes every query, not just the tail ones, so a
    # blame match keeps the command useful even without an exemplar.
    blame_match = []
    if loaded.blame is not None:
        blame_match = _match_blame_query(
            assemble_queries(loaded.blame.records), query_id)

    if not exemplars and not blame_match:
        print(f"no tail exemplars for query {query_id} — only samples above "
              f"the capture percentile are recorded; see the exemplar lines "
              f"in {timeline_path} for the queries that are")
        return 1
    if not exemplars:
        print(f"no tail exemplars for query {query_id} — only samples above "
              f"the capture percentile are recorded — but the kernel blame "
              f"stream decomposed it:")

    spans = {span["span_id"]: span for span in loaded.spans.spans}
    children: dict = {}
    for span in spans.values():
        children.setdefault(span.get("parent_id"), []).append(span)

    if exemplars:
        print(f"query {query_id}: {len(exemplars)} tail exemplar(s)")
    for ex in exemplars:
        print(f"\nexemplar: {ex['metric']} = {ex['value_us']:.1f} us "
              f"(window {ex['window']}, t = {ex.get('t_us', 0.0):.1f} us)")
        root = spans.get(ex.get("span_id"))
        if root is None:
            print("  (no matching span — run with tracing enabled to "
                  "capture the breakdown)")
            continue

        def show(span, depth):
            attrs = " ".join(f"{k}={v}" for k, v in span["attrs"].items())
            print(f"  {'  ' * depth}{span['name']} "
                  f"[{span['dur_us']:.1f} us] {attrs}".rstrip())
            for child in sorted(children.get(span["span_id"], []),
                                key=lambda s: s["start_us"]):
                show(child, depth + 1)

        show(root, 0)
        inside = [r for r in audit
                  if root["start_us"] <= r["t_us"] <= root["end_us"]]
        if inside:
            print(f"  decisions during this query ({len(inside)}):")
            for r in inside:
                data = " ".join(f"{k}={v}" for k, v in r["data"].items())
                print(f"    t={r['t_us']:.1f} {r['type']} "
                      f"{r['kind']}:{r['key']} {data}".rstrip())

    # Kernel blame: where the microseconds queued vs served, when the
    # run went through the concurrency kernel (blame.jsonl present).
    if blame_match:
        print("\nkernel blame (wait vs service per resource):")
        for q in blame_match:
            print(format_query_blame(q))
    return 0


def _explain_incident(dir_path: str, n: int) -> int:
    """Walk one flight-recorder incident bundle end to end."""
    from repro.obs import format_incident, list_incidents, load_incident

    if not os.path.isdir(dir_path):
        raise _CliError(f"{dir_path}: --incident needs a telemetry directory "
                        f"(written by a kernel-mode `repro run --telemetry "
                        f"DIR --timeline`)")
    bundles = list_incidents(dir_path)
    want = os.path.join(dir_path, f"incident-{n}")
    if want not in bundles:
        have = ", ".join(os.path.basename(b) for b in bundles) or "none"
        raise _CliError(f"no incident-{n} under {dir_path} (have: {have})")
    print(format_incident(
        _load(load_incident, want, "unreadable incident bundle")))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.obs import format_top_frame, list_incidents, load_timeline_jsonl

    if not os.path.isdir(args.dir):
        raise _CliError(f"{args.dir}: not a telemetry directory")

    def frame() -> str:
        # Only what the frame draws, so a run still being written (no
        # metrics.json, no timeline footer yet) reads as well as a
        # finished one.
        tl = _load(load_timeline_jsonl,
                   os.path.join(args.dir, "timeline.jsonl"),
                   "not a usable timeline",
                   "; record one with `repro run --telemetry DIR --timeline`")
        manifests = []
        for bundle in list_incidents(args.dir):
            path = os.path.join(bundle, "incident.json")
            try:
                with open(path, encoding="utf-8") as fh:
                    manifests.append(json.load(fh))
            except ValueError:
                print(f"note: {path}: skipped a manifest still being "
                      f"written", file=sys.stderr)
        return format_top_frame(args.dir, tl.windows, manifests,
                                width=args.width)

    try:
        if args.once:
            print(frame())
            return 0
        while True:
            try:
                body = frame()
            except _CliError as exc:
                # A run not started yet: read again.
                body = f"error: {exc}"
            sys.stdout.write("\x1b[2J\x1b[H" + body + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_incidents(args: argparse.Namespace) -> int:
    from repro.obs import list_incidents, load_incident

    if not os.path.isdir(args.dir):
        raise _CliError(f"{args.dir}: not a directory")
    rows = []
    docs = []
    valid = 0
    for bundle in list_incidents(args.dir):
        name = os.path.basename(bundle)
        try:
            incident = load_incident(bundle)
        except (ValueError, OSError) as exc:
            rows.append([name, f"INVALID: {exc}", "-", "-", "-"])
            docs.append({"bundle": name, "valid": False,
                         "error": str(exc)})
            continue
        _note_torn(incident)
        valid += 1
        manifest, counts = incident.manifest, incident.counts
        trig = manifest["trigger"]
        rows.append([
            name,
            f"[{trig['severity']}] {trig['detector']}",
            trig["window"],
            len(manifest["qids"]),
            f"{counts['windows']}w/{counts['spans']}s/"
            f"{counts['blame_queries']}q/{counts['audit_records']}a",
        ])
        docs.append({"bundle": name, "valid": True, "manifest": manifest,
                     "counts": counts})
    if args.json:
        print(json.dumps({"dir": args.dir, "valid": valid,
                          "bundles": docs}, indent=1))
    elif rows:
        print(format_table(
            ["bundle", "trigger", "window", "qids", "evidence"], rows,
            title=f"incidents in {args.dir}"))
    else:
        print(f"no incident bundles in {args.dir}")
    if args.require is not None and valid < args.require:
        print(f"error: {valid} valid incident bundle(s), need >= "
              f"{args.require}", file=sys.stderr)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        compare_benches,
        format_regressions,
        load_bench,
        next_bench_path,
        run_suite,
        write_bench,
    )

    baseline = None
    if args.against:
        from repro.bench.scenarios import SUITES

        # Before any scenario runs: a bad baseline must not cost a suite,
        # and one without this suite's scenarios would gate nothing.
        baseline = _load(load_bench, args.against,
                         "not a usable bench baseline")
        held = sorted(baseline["scenarios"])
        if not {s.name for s in SUITES[args.suite]} & set(held):
            raise _CliError(f"{args.against}: no scenario of suite "
                            f"{args.suite!r} (it holds {', '.join(held)})")
    doc = run_suite(args.suite,
                    progress=lambda s: print(f"running {s.name} ..."))
    out = args.out or next_bench_path()
    write_bench(doc, out)
    for name, entry in doc["scenarios"].items():
        m = entry["metrics"]
        if "reject_fraction" in m:  # open-loop saturation scenario
            print(f"  {name:<16s} {m['mean_response_ms']:8.2f} ms/q "
                  f"{m['throughput_qps']:8.1f} q/s "
                  f"p999 {m['p999_response_ms']:8.1f} ms "
                  f"shed {m['reject_fraction']:6.1%} "
                  f"util {m['bottleneck_utilization']:5.1%}")
        else:
            print(f"  {name:<16s} {m['mean_response_ms']:8.2f} ms/q "
                  f"{m['throughput_qps']:8.1f} q/s "
                  f"hit {m['combined_hit_ratio']:6.1%} "
                  f"erases {m['ssd_erases']:5d}")
    print(f"wrote {out}")
    if baseline is not None:
        try:
            regressions = compare_benches(doc, baseline)
        except ValueError as exc:
            raise _CliError(str(exc)) from None
        print(f"gate vs {args.against}: {format_regressions(regressions)}")
        if regressions:
            return 1
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.bench.scenarios import SUITES
    from repro.obs import (
        Profiler,
        Telemetry,
        format_profile,
        write_folded,
        write_profile,
    )
    from repro.workloads.retrieval import prepare_cached_manager, run_cached

    # cProfile captures the calling thread only; kernel tasks run on OS
    # threads, so open-loop scenarios cannot be attributed and are skipped.
    scenarios = [s for s in SUITES[args.suite] if s.arrival == "closed"]
    skipped = len(SUITES[args.suite]) - len(scenarios)
    if not scenarios:
        raise _CliError(f"suite {args.suite!r} has only open-loop "
                        f"scenarios; cProfile cannot attribute kernel task "
                        f"threads")
    if skipped:
        print(f"(skipping {skipped} open-loop scenario(s): cProfile is "
              f"per-thread)")

    profiler = Profiler()
    start = time.perf_counter()
    total_queries = 0
    for sc in scenarios:
        print(f"profiling {sc.name} ...")
        index, log, cfg = sc.inputs()
        mgr = prepare_cached_manager(
            index, log, cfg, static_analyze_queries=sc.queries // 2,
            seed=sc.seed, telemetry=Telemetry(trace=False, audit=False),
        )
        with profiler.profile():
            run_cached(index, log, cfg, seed=sc.seed, manager=mgr)
        total_queries += sc.queries

    doc = profiler.summary(top=args.top)
    doc["suite"] = args.suite
    doc["queries"] = total_queries
    doc["build_wall_s"] = (time.perf_counter() - start) - profiler.wall_s

    if args.json:
        print(json.dumps(doc, indent=1, sort_keys=True))
    else:
        print()
        print(format_profile(doc, top=args.top))
    if args.out:
        write_profile(doc, args.out)
        print(f"wrote profile summary to {args.out}")
    if args.folded:
        lines = profiler.folded_lines()
        write_folded(lines, args.folded)
        print(f"wrote {len(lines)} collapsed stacks to {args.folded}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "corpus": _cmd_corpus,
        "trace": _cmd_trace,
        "analyze": _cmd_analyze,
        "run": _cmd_run,
        "report": _cmd_report,
        "timeline": _cmd_timeline,
        "blame": _cmd_blame,
        "explain": _cmd_explain,
        "top": _cmd_top,
        "incidents": _cmd_incidents,
        "compare": _cmd_compare,
        "bench": _cmd_bench,
        "profile": _cmd_profile,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe shows here, not at shutdown
        return code
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader left early (``repro blame DIR | head``): the rest of
        # the output has nowhere to go.  Point stdout at devnull so the
        # interpreter's exit-time flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
