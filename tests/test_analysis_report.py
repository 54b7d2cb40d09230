"""Markdown report generation and the CLI compare subcommand."""

import pytest

from repro.analysis.report import policy_comparison_report
from repro.cli import main
from repro.core.stats import CacheStats, Situation
from repro.workloads.retrieval import RunResult


def fake_result(label, ms, qps, erases, hit=0.4):
    stats = CacheStats()
    # Seed enough counters that combined_hit_ratio ~ hit.
    stats.result_l1_hits = int(hit * 100)
    stats.result_misses = 100 - stats.result_l1_hits
    stats.record_query(Situation.S1, ms * 1000.0)
    return RunResult(label=label, queries=100, mean_response_ms=ms,
                     throughput_qps=qps, stats=stats, ssd_erases=erases)


def test_report_structure():
    results = {
        "lru": fake_result("lru", 40.0, 25.0, 1000),
        "cblru": fake_result("cblru", 24.0, 41.0, 300),
        "cbslru": fake_result("cbslru", 20.0, 50.0, 250),
    }
    report = policy_comparison_report(results)
    assert report.startswith("# Cache policy comparison")
    assert "| lru |" in report and "| cbslru |" in report
    # Relative columns computed vs LRU.
    assert "-40.0%" in report  # 24 vs 40 ms
    assert "+64.0%" in report  # 41 vs 25 qps
    assert "-70.0%" in report  # 300 vs 1000 erases
    assert "Paper reference" in report


def test_report_validation():
    with pytest.raises(ValueError):
        policy_comparison_report({})
    with pytest.raises(ValueError):
        policy_comparison_report({"cblru": fake_result("c", 1, 1, 1)})


def test_report_zero_baseline_erases():
    results = {
        "lru": fake_result("lru", 40.0, 25.0, 0),
        "cblru": fake_result("cblru", 24.0, 41.0, 0),
    }
    report = policy_comparison_report(results)
    assert "n/a" in report


def test_cli_compare(tmp_path, capsys):
    out = tmp_path / "report.md"
    rc = main(["compare", "--docs", "100000", "--queries", "250",
               "--mem-mb", "2", "--ssd-mb", "8", "--out", str(out)])
    printed = capsys.readouterr().out
    assert rc == 0
    assert out.exists()
    text = out.read_text()
    assert "| lru |" in text
    assert "| cbslru |" in text
    assert "Policy comparison on 100,000 docs" in printed
