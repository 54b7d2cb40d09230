"""The regression gate: compare two BENCH documents metric by metric.

Each gated metric has a direction (is higher or lower worse?) and a
relative tolerance.  The simulation is deterministic, so on unchanged
code every gated metric matches exactly; the tolerances exist to absorb
*intentional* small shifts (a reordered write here, one extra GC pass
there) without ungated drift.  Only simulated metrics gate here; a
metric with no threshold — and any other key a document carries, such
as the host-time blocks older baselines recorded — is ignored.  Host
time is measured and compared by ``hostbench/``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Threshold", "Regression", "DEFAULT_THRESHOLDS",
           "BLAME_THRESHOLDS", "compare_benches", "format_regressions"]


@dataclass(frozen=True)
class Threshold:
    """Gate for one metric: which direction is bad, and by how much."""

    #: "up" = an increase is a regression; "down" = a decrease is.
    bad_direction: str
    #: relative tolerance (0.05 = 5% movement in the bad direction is ok)
    rel_tol: float
    #: absolute slack for near-zero baselines (|delta| below this passes)
    abs_tol: float = 0.0


@dataclass(frozen=True)
class Regression:
    """One gated metric that moved past its threshold."""

    scenario: str
    metric: str
    baseline: float
    current: float
    threshold: Threshold

    @property
    def rel_change(self) -> float:
        if self.baseline == 0:
            return float("inf") if self.current else 0.0
        return (self.current - self.baseline) / abs(self.baseline)


#: metric name (or stage-percentile prefix) -> gate.
DEFAULT_THRESHOLDS: dict[str, Threshold] = {
    "mean_response_ms": Threshold("up", 0.05),
    "throughput_qps": Threshold("down", 0.05),
    # Open-loop (kernel) saturation metrics: tails and waits move more
    # than means under contention, so their gates are looser.
    "p99_response_ms": Threshold("up", 0.10),
    "p999_response_ms": Threshold("up", 0.10),
    "mean_wait_ms": Threshold("up", 0.15, abs_tol=0.5),
    "reject_fraction": Threshold("up", 0.10, abs_tol=0.02),
    "peak_queue_depth": Threshold("up", 0.25, abs_tol=2.0),
    "bottleneck_utilization": Threshold("up", 0.05, abs_tol=0.02),
    "result_hit_ratio": Threshold("down", 0.02, abs_tol=0.005),
    "list_hit_ratio": Threshold("down", 0.02, abs_tol=0.005),
    "combined_hit_ratio": Threshold("down", 0.02, abs_tol=0.005),
    "ssd_erases": Threshold("up", 0.10, abs_tol=2.0),
    "write_amplification": Threshold("up", 0.10, abs_tol=0.02),
    "gc_page_writes": Threshold("up", 0.15, abs_tol=16.0),
    # Stage percentiles: generous, they gate order-of-magnitude slips.
    "stage_": Threshold("up", 0.20, abs_tol=1.0),
}

#: Capacity-model gates over the per-scenario ``blame`` block (open-loop
#: scenarios only).  The knee estimate falling means the modeled
#: capacity ceiling dropped; wait fraction rising means queueing grew at
#: unchanged load; the Little's-law error rising means the blame
#: instrumentation itself disagrees with the depth accounting.
BLAME_THRESHOLDS: dict[str, Threshold] = {
    "knee_qps": Threshold("down", 0.15, abs_tol=2.0),
    "wait_fraction": Threshold("up", 0.15, abs_tol=0.05),
    "little_law_max_rel_err": Threshold("up", 0.5, abs_tol=0.02),
}


def _threshold_for(metric: str,
                   thresholds: dict[str, Threshold]) -> Threshold | None:
    t = thresholds.get(metric)
    if t is not None:
        return t
    for prefix, t in thresholds.items():
        if prefix.endswith("_") and metric.startswith(prefix):
            return t
    return None


def compare_benches(
    current: dict,
    baseline: dict,
    thresholds: dict[str, Threshold] | None = None,
) -> list[Regression]:
    """Every gated metric of ``current`` that regressed vs ``baseline``.

    Scenarios present in only one document are skipped (suites may grow).
    Within a shared scenario, a gated metric that the baseline recorded
    as nonzero but the current run no longer reports is treated as a
    regression to 0.

    Documents measured under different methodologies (the harness's
    ``methodology`` block — e.g. full-run vs steady-state-windowed) are
    not comparable: their numbers answer different questions, so this
    raises ``ValueError`` instead of producing a meaningless verdict.
    """
    cur_meth = current.get("methodology")
    base_meth = baseline.get("methodology")
    if cur_meth != base_meth:
        def _name(m):
            return m.get("name", "?") if isinstance(m, dict) else "pre-methodology"
        detail = f"current is {_name(cur_meth)!r}, baseline is {_name(base_meth)!r}"
        if isinstance(cur_meth, dict) and isinstance(base_meth, dict):
            differing = sorted(k for k in set(cur_meth) | set(base_meth)
                               if cur_meth.get(k) != base_meth.get(k))
            detail += f" (differing parameters: {', '.join(differing)})"
        raise ValueError(
            f"cannot compare benches across measurement methodologies: "
            f"{detail}; re-record the baseline with the current harness"
        )
    thresholds = thresholds if thresholds is not None else DEFAULT_THRESHOLDS
    out: list[Regression] = []
    for name, base_entry in baseline.get("scenarios", {}).items():
        cur_entry = current.get("scenarios", {}).get(name)
        if cur_entry is None:
            continue
        base_metrics = base_entry["metrics"]
        cur_metrics = cur_entry["metrics"]
        for metric, base_val in base_metrics.items():
            t = _threshold_for(metric, thresholds)
            if t is None:
                continue
            cur_val = cur_metrics.get(metric)
            if cur_val is None:
                if base_val:  # a formerly-nonzero gated metric vanished
                    out.append(Regression(name, metric, base_val, 0.0, t))
                continue
            delta = cur_val - base_val
            if t.bad_direction == "down":
                delta = -delta
            if delta <= t.abs_tol:
                continue
            if base_val != 0 and delta / abs(base_val) <= t.rel_tol:
                continue
            out.append(Regression(name, metric, base_val, cur_val, t))
        # Capacity model: gated when both sides carry a blame block
        # (open-loop scenarios); pre-blame baselines skip.
        base_blame = base_entry.get("blame") or {}
        cur_blame = cur_entry.get("blame") or {}
        for metric, t in BLAME_THRESHOLDS.items():
            base_val = base_blame.get(metric)
            cur_val = cur_blame.get(metric)
            if base_val is None or cur_val is None:
                continue
            delta = cur_val - base_val
            if t.bad_direction == "down":
                delta = -delta
            if delta <= t.abs_tol:
                continue
            if base_val != 0 and delta / abs(base_val) <= t.rel_tol:
                continue
            out.append(Regression(name, f"blame.{metric}",
                                  base_val, cur_val, t))
    return out


def format_regressions(regressions: list[Regression]) -> str:
    """Human-readable gate report (one line per regression)."""
    if not regressions:
        return "no regressions"
    lines = [f"{len(regressions)} regression(s) past thresholds:"]
    for r in regressions:
        direction = "rose" if r.threshold.bad_direction == "up" else "fell"
        lines.append(
            f"  {r.scenario}: {r.metric} {direction} "
            f"{r.baseline:.4g} -> {r.current:.4g} "
            f"({r.rel_change:+.1%}, tolerance "
            f"{r.threshold.rel_tol:.0%} {r.threshold.bad_direction})"
        )
    return "\n".join(lines)
