"""Per-stage latency breakdown tables from metrics snapshots.

Reads the ``stage_latency_us`` histograms of a ``metrics.json``
snapshot (``MetricsRegistry.snapshot()``) and renders the tables
``repro run --telemetry`` / ``repro report`` / ``repro compare`` print —
where each query's microseconds went, per tier.
"""

from __future__ import annotations

__all__ = ["stage_summary", "format_stage_breakdown", "format_stage_comparison"]

#: Render order; stages outside this list sort alphabetically after it.
STAGE_ORDER = ("l1", "l2", "hdd", "store-ssd", "cpu")


def _ordered(stages) -> list[str]:
    known = [s for s in STAGE_ORDER if s in stages]
    return known + sorted(s for s in stages if s not in STAGE_ORDER)


def stage_summary(snapshot: dict) -> dict[str, dict]:
    """Stage -> summary dict from a metrics.json snapshot."""
    out: dict[str, dict] = {}
    for m in snapshot.get("metrics", []):
        if (m.get("name") != "stage_latency_us" or m.get("kind") != "histogram"
                or not m.get("count")):
            continue
        stage = m.get("tags", {}).get("stage")
        if stage is None:
            continue
        out[stage] = {
            "count": m["count"],
            "sum_us": m["sum"],
            "mean_us": m["sum"] / m["count"],
            "p50_us": m.get("p50", 0.0),
            "p95_us": m.get("p95", 0.0),
            "p99_us": m.get("p99", 0.0),
        }
    return out


def format_stage_breakdown(snapshot: dict,
                           title: str = "per-stage latency breakdown") -> str:
    """One run's breakdown: where the total response time went."""
    # Imported lazily: repro.analysis pulls in the workloads package,
    # whose cache modules themselves import repro.obs.
    from repro.analysis.tables import format_table

    summary = stage_summary(snapshot)
    if not summary:
        return f"{title}\n(no stage telemetry recorded)"
    total_us = sum(d["sum_us"] for d in summary.values())
    rows = []
    for stage in _ordered(summary):
        d = summary[stage]
        rows.append([
            stage,
            d["count"],
            f"{d['sum_us'] / 1000.0:.2f}",
            f"{d['sum_us'] / total_us:.1%}" if total_us else "n/a",
            f"{d['mean_us']:.1f}",
            f"{d['p50_us']:.1f}",
            f"{d['p95_us']:.1f}",
            f"{d['p99_us']:.1f}",
        ])
    return format_table(
        ["stage", "samples", "total ms", "share", "mean us", "p50 us",
         "p95 us", "p99 us"],
        rows,
        title=title,
    )


def format_stage_comparison(snapshots: dict[str, dict],
                            title: str = "per-stage breakdown by run") -> str:
    """Side-by-side stage totals for several runs' snapshots."""
    from repro.analysis.tables import format_table

    if not snapshots:
        raise ValueError("snapshots must be non-empty")
    summaries = {label: stage_summary(snap)
                 for label, snap in snapshots.items()}
    stages = _ordered({s for summary in summaries.values() for s in summary})
    if not stages:
        return f"{title}\n(no stage telemetry recorded)"
    totals = {label: sum(d["sum_us"] for d in summary.values())
              for label, summary in summaries.items()}
    rows = []
    for stage in stages:
        row: list[object] = [stage]
        for label, summary in summaries.items():
            d = summary.get(stage)
            if d is None:
                row.append("-")
            else:
                share = d["sum_us"] / totals[label] if totals[label] else 0.0
                row.append(f"{d['sum_us'] / 1000.0:.2f} ms ({share:.1%})")
        rows.append(row)
    return format_table(["stage", *summaries], rows, title=title)
