"""Tests of the benchmark itself.  Not part of tier-1 (``testpaths`` is
``tests``); run with ``python -m pytest hostbench/tests -q`` (~40 s).

They drive ``run.py`` in ``--quick`` mode: one repeat, a tenth of the
queries, a tenth of every isolated harness.
"""

from __future__ import annotations

import copy
import io
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from hostbench import compare, e2e, measure  # noqa: E402
from hostbench import workloads as wl  # noqa: E402
from repro.engine.query import Query  # noqa: E402

RUN = os.path.join(ROOT, "hostbench", "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def run_cli(*args: str) -> dict:
    """Run the benchmark; returns the parsed last line of its output."""
    done = subprocess.run([sys.executable, RUN, *args], cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, timeout=600)
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def full(tmp_path_factory) -> dict:
    """``--all --quick --trace``: every workload, untraced and traced."""
    out = tmp_path_factory.mktemp("hostbench") / "all.json"
    run_cli("--all", "--quick", "--trace", "--seconds", "2", "--out", str(out))
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def again(tmp_path_factory) -> dict:
    """A second, untraced ``--all --quick`` of the same seed."""
    out = tmp_path_factory.mktemp("hostbench") / "again.json"
    run_cli("--all", "--quick", "--seconds", "2", "--out", str(out))
    return json.loads(out.read_text())


def test_benchmark_json_meets_the_contract(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert 1 <= spec["run_seconds"] <= 60
    names = ([w["name"] for w in spec["workloads"]]
             + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_every_metric_is_reported_with_its_unit(full, spec):
    runs = {(r["workload"], r["trace"]): r for r in full["runs"]}
    assert len(runs) == 2 * len(spec["workloads"])
    for (workload, traced), run in runs.items():
        declared = spec["per_layer" if traced else "end_to_end"]
        assert list(run["metrics"]) == [m["name"] for m in declared]
        for m in declared:
            got = run["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert isinstance(got["value"], (int, float))
        if not traced:
            # A gated metric is never 0 at full size; --quick's exec_taat
            # is 20 distinct queries, too few for a single list hit.
            assert all(m["value"] > 0 for name, m in run["metrics"].items()
                       if (workload, name) != ("exec_taat",
                                               "sim_combined_hit_ratio"))
    assert full["claim"] is None


def test_last_line_is_the_contract_object():
    line = run_cli("--workload", "closed_fit", "--quick", "--seconds", "1",
                   "--seed", "3", "--trace", "0")
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def test_no_operation_fails(full):
    for run in full["runs"]:
        assert run["ops_failed"] == 0, run["failures"]
        assert run["ops_attempted"] >= run["measured"]


def test_digest_is_identical_across_passes_and_runs(full, again):
    first = {r["workload"]: r for r in full["runs"] if not r["trace"]}
    traced = {r["workload"]: r for r in full["runs"] if r["trace"]}
    second = {r["workload"]: r for r in again["runs"]}
    for workload, run in first.items():
        digest = run["sim_digest"]
        # off and armed passes of every repeat, the traced run's passes
        # (its traced pass would have failed the run otherwise), and an
        # independent second process
        for repeat in run["repeats"] + traced[workload]["repeats"]:
            assert repeat["off"]["digest"] == digest
            assert repeat["armed"]["digest"] == digest
        assert traced[workload]["sim_digest"] == digest
        assert second[workload]["sim_digest"] == digest
        assert second[workload]["sim"] == run["sim"]


def test_layers_each_workload_was_chosen_for(full):
    m = {r["workload"]: {k: v["value"] for k, v in r["metrics"].items()}
         for r in full["runs"] if r["trace"]}
    assert m["open_kernel"]["sim.kernel.serves_per_query"] > 0
    assert m["open_kernel"]["sim.kernel.path_ratio"] > 1
    for closed in ("closed_miss", "closed_fit", "exec_taat"):
        assert m[closed]["sim.kernel.overhead_us_per_query"] == 0
        assert m[closed]["hot.kernel_heap_pops_per_query"] == 0
    assert m["exec_taat"]["engine.index.postings_us_per_query"] > 0
    assert m["exec_taat"]["engine.codec.decode_ns_per_posting"] > 0
    assert m["closed_miss"]["engine.index.postings_us_per_query"] == 0
    assert m["closed_miss"]["flash.ssd.writes_per_query"] > 0
    assert m["closed_miss"]["flash.replay.lru.write_ns_per_page"] > 0
    for workload, metrics in m.items():
        assert metrics["host.pycalls_per_query"] > 0
        assert 0.5 < metrics["trace.coverage_fraction"] <= 1.0


def test_span_parents_resolve_and_self_times_are_not_negative(tmp_path):
    out = tmp_path / "spans.jsonl"
    run_cli("--workload", "open_kernel", "--quick", "--seconds", "1",
            "--trace", "1", "--trace-out", str(out))
    spans = [json.loads(line) for line in out.read_text().splitlines()]
    ids = {s["span"] for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    assert len(roots) == 1 and roots[0]["name"] == "workloads.serve"
    assert all(s["parent"] in ids for s in spans if s["parent"] is not None)
    assert all(s["self_ns"] >= 0 and s["end_ns"] >= s["start_ns"]
               for s in spans)
    assert len({s["thread"] for s in spans}) > 1  # kernel task threads
    queries = [s for s in spans if s["name"] == "core.manager.process_query"]
    assert sorted(s["qid"] for s in queries) == list(range(len(queries)))
    serves = [s for s in spans if s["name"] == "sim.kernel.serve"]
    assert serves and all(s["qid"] is not None for s in serves)


class Poisoned(Query):
    @property
    def key(self):
        raise RuntimeError("injected failure")


def test_an_injected_failing_query_is_counted():
    w = wl.WORKLOADS["closed_miss"].scaled(20)
    inputs = wl.make_inputs(w, 5)
    victim = inputs.queries[w.warm + 7]
    inputs.queries[w.warm + 7] = Poisoned(victim.query_id, victim.terms)
    bad = measure.run_pass(w, inputs, 5, "off")
    assert bad.failed_ops == 1 and "injected failure" in bad.failures[0]
    clean = measure.run_pass(w, wl.make_inputs(w, 5), 5, "off")
    assert clean.failed_ops == 0
    # ...and a pass whose simulated results moved fails as a whole.
    run = e2e.Run(repeats=[e2e.Repeat(0.0, clean, bad)])
    run.enforce_digest()
    assert run.failed == w.measured and run.attempted == 2 * w.measured


def test_compare_verdicts(again, spec):
    a = {r["workload"]: r for r in again["runs"]}
    out = io.StringIO()
    assert compare.compare(a, a, spec, out=out) == 0
    assert "regressed" not in out.getvalue()
    assert "sim_digest unchanged" in out.getvalue()

    slower = copy.deepcopy(a)
    slower["closed_fit"]["samples"]["host_cal_per_query"] = [
        1.5 * v for v in a["closed_fit"]["samples"]["host_cal_per_query"]]
    out = io.StringIO()
    assert compare.compare(a, slower, spec, out=out) == 1
    assert out.getvalue().count("regressed") == 1

    failing = copy.deepcopy(a)
    failing["exec_taat"]["ops_failed"] = 1
    assert compare.compare(a, failing, spec, out=io.StringIO()) == 1

    assert compare.verdict([100, 150, 200], [400], "lower", 0.25)[0] == "unresolved"
    assert compare.verdict([100, 101, 102], [80], "lower", 0.25)[0] == "improved"
    assert compare.verdict([0.5], [0.3], "higher", 0.25)[0] == "regressed"
