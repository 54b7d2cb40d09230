#!/usr/bin/env python3
"""Compare two hostbench documents: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of one
commit — the A/A check), B the candidate.  For every workload and
end-to-end metric this prints each side's median and quartiles over the
run's repeats, the ratio B/A with its base, and a verdict against the
bound recorded in ``BENCHMARK.json``:

* ``regressed``    B's median is worse than A's by more than the bound;
* ``improved``     B's median is better by more than A's own spread;
* ``within bound`` neither;
* ``unresolved``   A's spread (interquartile distance over its median)
  is wider than the bound, so the run cannot tell.

Simulated metrics of one seed have no spread: they are equal or they
are not, and ``sim_digest`` says which.  Exits 1 on any regression or
if B fails a larger share of its operations than A.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> dict[str, dict]:
    """End-to-end (untraced) runs of a document, by workload.  Accepts a
    single-workload document or an ``--all`` one."""
    with open(path) as fh:
        doc = json.load(fh)
    runs = doc.get("runs", [doc])
    return {run["workload"]: run for run in runs if not run["trace"]}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """(verdict, B's median over A's)."""
    q1, _, q3 = quartiles(a)
    med_a, med_b = statistics.median(a), statistics.median(b)
    if med_a == 0:
        return ("within bound" if med_b == 0 else "unresolved"), float("nan")
    ratio = med_b / med_a
    spread = (q3 - q1) / med_a
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if spread > bound:
        return "unresolved", ratio
    if worse > bound:
        return "regressed", ratio
    if -worse > spread and worse < 0:
        return "improved", ratio
    return "within bound", ratio


def compare(a_runs: dict, b_runs: dict, spec: dict, out=sys.stdout) -> int:
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = a_runs.get(workload), b_runs.get(workload)
        if a is None or b is None:
            continue
        same = a["sim_digest"] == b["sim_digest"]
        print(f"{workload}  (seed {a['seed']} vs {b['seed']}; sim_digest "
              f"{'unchanged' if same else 'DIFFERS'})", file=out)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["samples"][name], b["samples"][name]
            what, ratio = verdict(va, vb, metric["better"], metric["bound"])
            qa, qb = quartiles(va), quartiles(vb)
            print(f"  {name:<26} A {qa[1]:>11.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                  f"  B {qb[1]:>11.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
                  f"  B/A {ratio:6.3f} of {qa[1]:.5g} {metric['unit']}"
                  f"  bound {metric['bound']:.2f}  {what}", file=out)
            if what == "regressed":
                status = 1
        share_a = a["ops_failed"] / a["ops_attempted"]
        share_b = b["ops_failed"] / b["ops_attempted"]
        print(f"  ops failed: A {a['ops_failed']}/{a['ops_attempted']}  "
              f"B {b['ops_failed']}/{b['ops_attempted']}", file=out)
        if share_b > share_a:
            print("  B fails a larger share of its operations", file=out)
            status = 1
    return status


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return compare(load_runs(argv[0]), load_runs(argv[1]), spec)


if __name__ == "__main__":
    sys.exit(main())
