"""The bench harness: document shape, determinism, and the regression gate."""

import copy
import json

import pytest

from repro.bench import (
    BENCH_SCHEMA,
    SUITES,
    BenchScenario,
    DEFAULT_THRESHOLDS,
    compare_benches,
    format_regressions,
    load_bench,
    next_bench_path,
    write_bench,
)
from repro.bench.harness import run_scenario
from repro.bench.regression import Threshold

TINY = BenchScenario("tiny", "cblru", docs=50_000, queries=120,
                     mem_mb=2, ssd_mb=8)


@pytest.fixture(scope="module")
def tiny_entry():
    return run_scenario(TINY)


def make_doc(entry):
    return {"schema": BENCH_SCHEMA, "suite": "tiny",
            "scenarios": {"tiny": copy.deepcopy(entry)}}


# -- running -----------------------------------------------------------------

def test_scenario_metrics_shape(tiny_entry):
    assert tiny_entry["config"] == TINY.to_dict()
    m = tiny_entry["metrics"]
    for key in ("mean_response_ms", "throughput_qps", "result_hit_ratio",
                "list_hit_ratio", "combined_hit_ratio", "ssd_erases",
                "write_amplification"):
        assert key in m, key
    assert m["mean_response_ms"] > 0
    assert 0.0 <= m["combined_hit_ratio"] <= 1.0
    assert m["write_amplification"] >= 1.0
    stage_keys = [k for k in m if k.startswith("stage_")]
    assert stage_keys, "stage-latency percentiles missing"
    assert all(m[k] >= 0 for k in stage_keys)


def assert_byte_reproducible(tmp_path, scenario, entry):
    """A second run writes the same file, and no host time is in it."""
    again = run_scenario(scenario)
    for name, e in (("first", entry), ("again", again)):
        write_bench({"schema": BENCH_SCHEMA, "suite": "tiny",
                     "scenarios": {scenario.name: e}}, tmp_path / name)
    assert (tmp_path / "first").read_bytes() == \
        (tmp_path / "again").read_bytes()
    assert "host" not in again
    assert not [k for k in again["metrics"] if k.startswith("wall_")]


def test_scenario_is_byte_reproducible(tmp_path, tiny_entry):
    assert_byte_reproducible(tmp_path, TINY, tiny_entry)


def test_scenario_records_measurement_methodology(tiny_entry):
    meas = tiny_entry["measurement"]
    assert meas["windows_total"] > 0
    assert 0 < meas["windows_measured"] <= meas["windows_total"]
    if meas["steady_window"] is not None:
        assert isinstance(meas["steady_window"], int)


def test_suites_are_registered():
    assert set(SUITES) == {"smoke", "full", "saturation"}
    names = [s.name for s in SUITES["smoke"]]
    assert len(names) == len(set(names))
    assert {s.policy for s in SUITES["smoke"]} == {"lru", "cblru", "cbslru"}
    # The saturation ladder is open-loop by construction.
    for s in SUITES["saturation"]:
        assert s.arrival in ("poisson", "diurnal")
        assert s.rate_qps > 0
        assert s.concurrency > 1


TINY_OPEN = BenchScenario("tiny-open", "cblru", docs=50_000, queries=150,
                          mem_mb=2, ssd_mb=8, arrival="poisson",
                          rate_qps=200.0, concurrency=4, max_queue=16,
                          warmup_queries=50)


@pytest.fixture(scope="module")
def tiny_open_entry():
    return run_scenario(TINY_OPEN)


def test_open_loop_scenario_metrics_shape(tiny_open_entry):
    m = tiny_open_entry["metrics"]
    for key in ("mean_response_ms", "throughput_qps", "p99_response_ms",
                "p999_response_ms", "mean_wait_ms", "reject_fraction",
                "peak_queue_depth", "bottleneck_utilization",
                "combined_hit_ratio"):
        assert key in m, key
    assert m["mean_response_ms"] > 0
    assert m["p999_response_ms"] >= m["p99_response_ms"] > 0
    assert 0.0 <= m["reject_fraction"] <= 1.0
    assert 0.0 <= m["bottleneck_utilization"] <= 1.0
    meas = tiny_open_entry["measurement"]
    assert meas["arrival"] == "poisson"
    assert meas["offered_qps"] == 200.0
    assert meas["warmup_queries"] == 50
    assert meas["completed"] + meas["rejected"] == meas["measured_queries"]
    assert isinstance(meas["bottleneck"], str) and meas["bottleneck"]


def test_closed_loop_entry_has_no_blame_block(tiny_entry):
    # Blame requires the concurrency kernel; closed-loop replays never
    # grow the block, so pre-existing baselines stay byte-identical.
    assert "blame" not in tiny_entry


def test_open_loop_entry_has_blame_block(tiny_open_entry):
    blame = tiny_open_entry["blame"]
    assert 0.0 <= blame["wait_fraction"] <= 1.0
    assert isinstance(blame["bottleneck"], str) and blame["bottleneck"]
    assert blame["knee_qps"] > 0
    assert blame["little_law_ok"]
    assert blame["little_law_max_rel_err"] < 0.05
    per = blame["per_resource"]
    assert blame["bottleneck"] in per
    for entry in per.values():
        assert 0.0 <= entry["utilization"] <= 1.0
        assert entry["mean_wait_us"] >= 0.0
        assert entry["mean_service_us"] >= 0.0


def test_open_loop_scenario_is_deterministic(tmp_path, tiny_open_entry):
    assert_byte_reproducible(tmp_path, TINY_OPEN, tiny_open_entry)


# -- document io -------------------------------------------------------------

def test_write_load_roundtrip(tmp_path, tiny_entry):
    doc = make_doc(tiny_entry)
    path = tmp_path / "BENCH_0000.json"
    write_bench(doc, path)
    assert load_bench(path) == doc
    # The file is plain sorted JSON (reviewable in a diff).
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == doc


def test_load_rejects_bad_documents(tmp_path):
    path = tmp_path / "bad.json"
    for payload, msg in [
        ({"schema": "other/v9", "scenarios": {"a": {}}}, "not a"),
        ({"schema": BENCH_SCHEMA, "scenarios": {}}, "no scenarios"),
        ({"schema": BENCH_SCHEMA,
          "scenarios": {"a": {"metrics": {"x": 1}}}}, "missing 'config'"),
        ({"schema": BENCH_SCHEMA,
          "scenarios": {"a": {"config": {}, "metrics": {}}}}, "no metrics"),
    ]:
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=msg):
            load_bench(path)


def test_next_bench_path_numbering(tmp_path):
    assert next_bench_path(tmp_path).endswith("BENCH_0000.json")
    (tmp_path / "BENCH_0003.json").write_text("{}")
    (tmp_path / "BENCH_0001.json").write_text("{}")
    (tmp_path / "not-a-bench.json").write_text("{}")
    assert next_bench_path(tmp_path).endswith("BENCH_0004.json")


# -- the gate ----------------------------------------------------------------

def test_identical_documents_pass(tiny_entry):
    doc = make_doc(tiny_entry)
    assert compare_benches(doc, doc) == []
    assert format_regressions([]) == "no regressions"


def test_methodology_mismatch_is_refused(tiny_entry):
    from repro.bench.harness import METHODOLOGY

    cur = make_doc(tiny_entry)
    cur["methodology"] = dict(METHODOLOGY)
    base = make_doc(tiny_entry)  # pre-methodology baseline
    with pytest.raises(ValueError, match="pre-methodology"):
        compare_benches(cur, base)
    # Different window widths measure different things.
    base["methodology"] = dict(METHODOLOGY, window_us=1.0)
    with pytest.raises(ValueError, match="methodologies"):
        compare_benches(cur, base)
    # Matching methodologies gate normally.
    base["methodology"] = dict(METHODOLOGY)
    assert compare_benches(cur, base) == []


def test_upward_regression_is_caught(tiny_entry):
    base = make_doc(tiny_entry)
    cur = make_doc(tiny_entry)
    m = cur["scenarios"]["tiny"]["metrics"]
    m["mean_response_ms"] *= 1.5
    regs = compare_benches(cur, base)
    assert [r.metric for r in regs] == ["mean_response_ms"]
    assert regs[0].rel_change == pytest.approx(0.5)
    assert "mean_response_ms rose" in format_regressions(regs)


def test_downward_regression_is_caught(tiny_entry):
    base = make_doc(tiny_entry)
    cur = make_doc(tiny_entry)
    m = cur["scenarios"]["tiny"]["metrics"]
    m["throughput_qps"] *= 0.5
    m["combined_hit_ratio"] *= 0.5
    regs = compare_benches(cur, base)
    assert {r.metric for r in regs} == {"throughput_qps",
                                        "combined_hit_ratio"}


def test_improvements_and_tolerated_drift_pass(tiny_entry):
    base = make_doc(tiny_entry)
    cur = make_doc(tiny_entry)
    m = cur["scenarios"]["tiny"]["metrics"]
    m["mean_response_ms"] *= 0.5      # faster: fine
    m["throughput_qps"] *= 2.0        # more throughput: fine
    m["ssd_erases"] += 1              # within abs_tol slack
    assert compare_benches(cur, base) == []


def test_legacy_host_time_keys_in_baseline_are_ignored(tiny_entry):
    # Baselines recorded before host time moved to hostbench/ carry a
    # per-scenario host block and a wall-clock metric; both are inert.
    base = make_doc(tiny_entry)
    base["scenarios"]["tiny"]["host"] = {"wall_us_per_query": 1.0}
    # (key spelled in two halves so the retired name stays grep-clean)
    base["scenarios"]["tiny"]["metrics"]["wall_clock" + "_s"] = 1e-9
    assert compare_benches(make_doc(tiny_entry), base) == []


def test_stage_percentiles_gate_by_prefix(tiny_entry):
    base = make_doc(tiny_entry)
    cur = make_doc(tiny_entry)
    m = cur["scenarios"]["tiny"]["metrics"]
    stage_key = next(k for k in m if k.startswith("stage_"))
    m[stage_key] = m[stage_key] * 2 + 10
    regs = compare_benches(cur, base)
    assert [r.metric for r in regs] == [stage_key]


def test_vanished_gated_metric_is_a_regression(tiny_entry):
    base = make_doc(tiny_entry)
    cur = make_doc(tiny_entry)
    del cur["scenarios"]["tiny"]["metrics"]["combined_hit_ratio"]
    regs = compare_benches(cur, base)
    assert [(r.metric, r.current) for r in regs] == [("combined_hit_ratio",
                                                      0.0)]


def test_unshared_scenarios_are_skipped(tiny_entry):
    base = make_doc(tiny_entry)
    cur = {"schema": BENCH_SCHEMA, "suite": "tiny",
           "scenarios": {"renamed": copy.deepcopy(tiny_entry)}}
    assert compare_benches(cur, base) == []


def make_open_doc(entry):
    return {"schema": BENCH_SCHEMA, "suite": "tiny-open",
            "scenarios": {"tiny-open": copy.deepcopy(entry)}}


def test_blame_gate_fails_injected_regressions(tiny_open_entry):
    base = make_open_doc(tiny_open_entry)
    cur = make_open_doc(tiny_open_entry)
    blame = cur["scenarios"]["tiny-open"]["blame"]
    blame["knee_qps"] = \
        base["scenarios"]["tiny-open"]["blame"]["knee_qps"] * 0.5 - 5
    blame["wait_fraction"] = \
        base["scenarios"]["tiny-open"]["blame"]["wait_fraction"] * 2 + 0.2
    blame["little_law_max_rel_err"] = 0.5
    regs = compare_benches(cur, base)
    assert {r.metric for r in regs} >= {"blame.knee_qps",
                                        "blame.wait_fraction",
                                        "blame.little_law_max_rel_err"}
    assert "blame.knee_qps fell" in format_regressions(regs)


def test_blame_drift_within_tolerance_passes(tiny_open_entry):
    base = make_open_doc(tiny_open_entry)
    cur = make_open_doc(tiny_open_entry)
    blame = cur["scenarios"]["tiny-open"]["blame"]
    blame["knee_qps"] *= 0.95          # a 5% dip is within the 15% gate
    blame["wait_fraction"] += 0.01     # inside the absolute slack
    assert compare_benches(cur, base) == []


def test_pre_blame_baseline_skips_blame_gate(tiny_open_entry):
    base = make_open_doc(tiny_open_entry)
    del base["scenarios"]["tiny-open"]["blame"]
    cur = make_open_doc(tiny_open_entry)
    cur["scenarios"]["tiny-open"]["blame"]["knee_qps"] = 0.1
    assert not [r for r in compare_benches(cur, base)
                if r.metric.startswith("blame.")]


def test_custom_thresholds_override_defaults(tiny_entry):
    base = make_doc(tiny_entry)
    cur = make_doc(tiny_entry)
    cur["scenarios"]["tiny"]["metrics"]["mean_response_ms"] *= 1.5
    lax = dict(DEFAULT_THRESHOLDS)
    lax["mean_response_ms"] = Threshold("up", rel_tol=1.0)
    assert compare_benches(cur, base, thresholds=lax) == []
