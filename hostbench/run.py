#!/usr/bin/env python3
"""hostbench: the repository's benchmark.

    python3 hostbench/run.py --workload NAME [--seed 7] [--seconds 24]
                             [--trace 0|1] [--quick] [--out FILE]
                             [--trace-out FILE]
    python3 hostbench/run.py --all [--trace] [--seed 7] [--out FILE]

One workload runs in one fresh process (``--all`` starts one after
another, never two at once) with ``PYTHONHASHSEED=0``.  Every metric is
printed by name with its unit and every output is checked; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

``host_*``, ``setup_s`` and ``peak_rss_mb`` are host time and memory;
``sim_*`` are simulated and repeat exactly for a seed.  The benchmark
claims no gain: it is the ruler later changes are measured with.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

if __name__ == "__main__" and os.environ.get("PYTHONHASHSEED") != "0":
    # str hashes feed every attribute and channel dict the simulator
    # touches; one fixed seed takes that layout lottery out of the
    # process-to-process spread.
    os.execve(sys.executable, [sys.executable, *sys.argv],
              dict(os.environ, PYTHONHASHSEED="0"))

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402

sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

SCHEMA = "hostbench/v1"
QUICK_DIVISOR = 10


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def fingerprint() -> dict:
    """The host the numbers were taken on."""
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu,
            "platform": platform.platform()}


def run_workload(args, spec: dict) -> dict:
    """Measure one workload in this process; returns its document."""
    # Imported here so that set-up time includes loading the program.
    try:
        import repro  # noqa: F401
    except ImportError:
        raise SystemExit("hostbench measures the program under src/, "
                         "which is not there") from None
    from hostbench import e2e, measure, trace, traced
    from hostbench.workloads import WORKLOADS

    import_s = time.process_time()  # CPU since the interpreter started
    if hasattr(os, "sched_setaffinity"):
        # One host thread drives; kernel tasks hand off strictly, one
        # runnable at a time.  On one CPU a hand-off never waits for a
        # second vCPU to be scheduled, and whatever the host steals, it
        # steals from the pass and from the calibration loop alike.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    import_cal_ns = measure.calibrate()
    samples = None
    scale = QUICK_DIVISOR if args.quick else 1
    w = WORKLOADS[args.workload].scaled(scale)
    if args.trace:
        declared = spec["per_layer"]
        run, values, rec = traced.run_traced(
            w, args.seed, args.seconds, scale,
            [m["name"] for m in declared])
        if args.trace_out:
            trace.write_jsonl(rec.spans, args.trace_out)
    else:
        declared = spec["end_to_end"]
        run = e2e.run_repeats(w, args.seed, args.seconds,
                              min_repeats=1 if args.quick else e2e.MIN_REPEATS)
        samples = e2e.end_to_end_samples(run, import_s, import_cal_ns)
        values = e2e.end_to_end_metrics(samples)
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise SystemExit(
            "metrics measured and metrics declared in BENCHMARK.json differ: "
            f"{sorted(set(values) ^ set(units))}")
    return {
        "schema": SCHEMA, "workload": w.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "quick": args.quick,
        "warm": w.warm, "measured": w.measured, "host": fingerprint(),
        "sim_digest": run.reference.digest, "sim": run.reference.sim,
        "ops_attempted": run.attempted, "ops_failed": run.failed,
        "failures": run.failures(),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
        "samples": samples, "repeats": [r.record() for r in run.repeats],
        "claim": None,
    }


def print_report(doc: dict) -> None:
    p95_beyond = doc["measured"] - -(-95 * doc["measured"] // 100)
    print(f"hostbench {doc['workload']} seed={doc['seed']} "
          f"trace={doc['trace']} warm={doc['warm']} "
          f"measured={doc['measured']} repeats={len(doc['repeats'])} "
          f"(p95 over {doc['measured']} samples, {p95_beyond} beyond it)")
    width = max(len(name) for name in doc["metrics"])
    for name, m in doc["metrics"].items():
        print(f"  {name:<{width}}  {m['value']:>14.6g} {m['unit']}")
    print(f"  sim_digest    {doc['sim_digest']}")
    print(f"  ops_attempted {doc['ops_attempted']}")
    print(f"  ops_failed    {doc['ops_failed']}")
    for line in doc["failures"][:20]:
        print(f"  FAILED: {line}")


def summary_line(docs: list[dict]) -> str:
    """The contract's last line.  With several documents (``--all``)
    metric names are prefixed with the workload."""
    metrics = {}
    for doc in docs:
        prefix = f"{doc['workload']}." if len(docs) > 1 else ""
        tag = ".traced" if len(docs) > 1 and doc["trace"] else ""
        for name, m in doc["metrics"].items():
            metrics[f"{prefix}{name}{tag}"] = m
    failed = sum(d["ops_failed"] for d in docs)
    return json.dumps({
        "correct": failed == 0,
        "attempted": sum(d["ops_attempted"] for d in docs),
        "failed": failed, "metrics": metrics,
    })


def run_all(args, spec: dict) -> list[dict]:
    """Each workload in its own fresh subprocess, one after another."""
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        for entry in spec["workloads"]:
            for traced_run in ([0, 1] if args.trace else [0]):
                out = os.path.join(tmp, f"{entry['name']}-{traced_run}.json")
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", entry["name"], "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(traced_run), "--out", out]
                if args.quick:
                    cmd.append("--quick")
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                # All but the child's own summary line is its report.
                sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
                if done.returncode != 0:
                    raise SystemExit(f"{entry['name']} exited "
                                     f"{done.returncode}")
                with open(out) as fh:
                    docs.append(json.load(fh))
    return docs


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=names)
    which.add_argument("--all", action="store_true")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="how long one run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1,
                    default=0, help="1: traced run, per-layer metrics")
    ap.add_argument("--quick", action="store_true",
                    help="one repeat, a tenth of the queries: a smoke test")
    ap.add_argument("--out", help="write the full JSON document here")
    ap.add_argument("--trace-out", help="write the traced spans here (JSONL)")
    args = ap.parse_args(argv)

    if args.all:
        docs = run_all(args, spec)
        doc = {"schema": SCHEMA, "seed": args.seed, "host": docs[0]["host"],
               "runs": docs, "claim": None}
    else:
        doc = run_workload(args, spec)
        docs = [doc]
        print_report(doc)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    print(summary_line(docs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
