"""Markdown report generation for experiment results.

Turns :class:`~repro.workloads.retrieval.RunResult` collections into the
kind of comparison report EXPERIMENTS.md is built from, so the CLI (and
downstream users) can produce shareable summaries without hand-editing.
"""

from __future__ import annotations

from repro.workloads.retrieval import RunResult

__all__ = ["policy_comparison_report"]

#: The policy the relative columns compare against (the paper reports
#: everything relative to LRU).
BASELINE = "lru"


def _pct(new: float, base: float) -> str:
    if base == 0:
        return "n/a"
    delta = (new / base - 1.0) * 100.0
    return f"{delta:+.1f}%"


def policy_comparison_report(
    results: dict[str, RunResult],
    title: str = "Cache policy comparison",
) -> str:
    """Render a markdown comparison of runs keyed by policy name.

    The ``BASELINE`` row anchors the relative columns.
    """
    if not results:
        raise ValueError("results must be non-empty")
    if BASELINE not in results:
        raise ValueError(f"baseline {BASELINE!r} missing from results")
    base = results[BASELINE]

    lines = [
        f"# {title}",
        "",
        f"{base.queries} queries per run; relative columns vs "
        f"`{BASELINE}`.",
        "",
        "| policy | hit ratio | response (ms) | Δ resp | qps | Δ qps "
        "| SSD erases | Δ erases |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for name, r in results.items():
        hit = r.stats.combined_hit_ratio if r.stats else 0.0
        lines.append(
            f"| {name} | {hit:.1%} | {r.mean_response_ms:.2f} "
            f"| {_pct(r.mean_response_ms, base.mean_response_ms)} "
            f"| {r.throughput_qps:.1f} "
            f"| {_pct(r.throughput_qps, base.throughput_qps)} "
            f"| {r.ssd_erases} "
            f"| {_pct(r.ssd_erases, base.ssd_erases) if base.ssd_erases else 'n/a'} |"
        )
    lines += [
        "",
        "Paper reference points (vs LRU): CBLRU response −35.27%, "
        "throughput +55.29%, erasures −59.92%; CBSLRU −41.05%, +70.47%, "
        "−71.52%.",
        "",
    ]
    return "\n".join(lines)
