"""Exposition: OpenMetrics text, JSON snapshots, telemetry dirs.

A telemetry directory (``repro run --telemetry DIR``) holds::

    spans.jsonl     one span object per line (see repro.obs.tracer)
    metrics.json    MetricsRegistry.snapshot() (schema repro.obs.metrics/v1)
    metrics.prom    the same registry as OpenMetrics text exposition
    audit.jsonl     the decision audit trail (present when auditing is on)
    timeline.jsonl  windowed time series (present when a timeline is
                    attached; schema repro.obs.timeline/v1)
    blame.jsonl     per-request kernel blame records (present for runs
                    under the concurrency kernel; repro.obs.blame/v1)
    incident-<n>/   flight-recorder incident bundles (present when the
                    recorder triggered; schema repro.obs.incident/v1)

:func:`validate_telemetry_dir` is the schema check used by both the CI
smoke job and ``repro report``.
"""

from __future__ import annotations

import json
import os

from repro.obs.registry import MetricsRegistry

__all__ = [
    "openmetrics_text",
    "write_metrics_json",
    "write_telemetry_dir",
    "load_metrics_json",
    "validate_telemetry_dir",
]

_SPAN_FIELDS = {"span_id", "parent_id", "name", "start_us", "end_us",
                "dur_us", "attrs"}


def _prom_name(name: str) -> str:
    return "".join(c if c.isalnum() or c == "_" else "_" for c in name)


_OM_QUANTILES = ("0.5", "0.9", "0.95", "0.99", "0.999")


def _om_escape(value) -> str:
    """Escape a label value per the OpenMetrics ABNF."""
    return (str(value).replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _om_labels(tags: dict, extra: dict | None = None) -> str:
    labels = dict(tags)
    if extra:
        labels.update(extra)
    if not labels:
        return ""
    body = ",".join(f'{_prom_name(k)}="{_om_escape(v)}"'
                    for k, v in sorted(labels.items()))
    return "{" + body + "}"


def _om_rows(source):
    """Normalize a registry or a metrics.json snapshot to exposition rows.

    Yields ``(name, tags, kind, data)`` where ``data`` is the scalar
    value for counters/gauges and a ``{count, sum, quantiles}`` dict for
    histograms.
    """
    if isinstance(source, MetricsRegistry):
        for name, tags, inst in source.items():
            if inst.kind == "histogram":
                qs = (dict(zip(_OM_QUANTILES, inst.percentiles()))
                      if inst.count else {})
                yield name, tags, "histogram", {
                    "count": inst.count, "sum": inst.sum, "quantiles": qs}
            else:
                yield name, tags, inst.kind, inst.value
        return
    if source.get("schema") != "repro.obs.metrics/v1":
        raise ValueError("openmetrics_text: not a repro.obs metrics snapshot")
    for m in source.get("metrics", []):
        if m["kind"] == "histogram":
            qs = (dict(zip(_OM_QUANTILES,
                           (m["p50"], m["p90"], m["p95"], m["p99"],
                            m["p999"])))
                  if m.get("count") else {})
            yield m["name"], m["tags"], "histogram", {
                "count": m.get("count", 0), "sum": m.get("sum", 0.0),
                "quantiles": qs}
        else:
            yield m["name"], m["tags"], m["kind"], m["value"]


def openmetrics_text(source) -> str:
    """Render a registry *or* a metrics.json snapshot as OpenMetrics text.

    Follows the OpenMetrics 1.0 exposition rules that differ from the
    legacy Prometheus format: counter metric families drop their
    ``_total`` suffix in the ``# TYPE`` line (samples keep it), label
    values escape ``\\``, ``"`` and newlines, histograms render as
    summaries (quantile series plus ``_sum``/``_count``), and the
    output terminates with ``# EOF``.  This is what
    ``repro report DIR --format openmetrics`` emits.
    """
    lines: list[str] = []
    typed: set[str] = set()
    for name, tags, kind, data in _om_rows(source):
        pname = _prom_name(name)
        if kind == "counter":
            family = pname[:-6] if pname.endswith("_total") else pname
            if family not in typed:
                lines.append(f"# TYPE {family} counter")
                typed.add(family)
            lines.append(f"{family}_total{_om_labels(tags)} {data}")
        elif kind == "gauge":
            if pname not in typed:
                lines.append(f"# TYPE {pname} gauge")
                typed.add(pname)
            lines.append(f"{pname}{_om_labels(tags)} {data}")
        else:
            if pname not in typed:
                lines.append(f"# TYPE {pname} summary")
                typed.add(pname)
            for q, v in data["quantiles"].items():
                lines.append(
                    f"{pname}{_om_labels(tags, {'quantile': q})} {v}")
            lines.append(f"{pname}_sum{_om_labels(tags)} {data['sum']}")
            lines.append(f"{pname}_count{_om_labels(tags)} {data['count']}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def write_metrics_json(registry: MetricsRegistry, path) -> None:
    with open(path, "w") as fh:
        json.dump(registry.snapshot(), fh, indent=1)
        fh.write("\n")


def load_metrics_json(path) -> dict:
    with open(path) as fh:
        snapshot = json.load(fh)
    if snapshot.get("schema") != "repro.obs.metrics/v1":
        raise ValueError(f"{path}: not a repro.obs metrics snapshot")
    return snapshot


def write_telemetry_dir(telemetry, out_dir) -> dict:
    """Write spans.jsonl / metrics.json / metrics.prom / audit.jsonl
    (plus timeline.jsonl / blame.jsonl when recorded).

    Flash-device bridges are sampled first (so wear/GC/WA gauges are
    current).  A recorder streaming into ``out_dir`` is finalized in
    place; one streaming elsewhere has its file(s) copied here.
    Returns a summary dict.
    """
    os.makedirs(out_dir, exist_ok=True)
    collect = getattr(telemetry, "collect", None)
    if collect is not None:
        collect()
    spans = telemetry.tracer.export_jsonl(os.path.join(out_dir, "spans.jsonl"))
    write_metrics_json(telemetry.registry, os.path.join(out_dir, "metrics.json"))
    with open(os.path.join(out_dir, "metrics.prom"), "w") as fh:
        fh.write(openmetrics_text(telemetry.registry))
    audit = getattr(telemetry, "audit", None)
    audit_records = 0
    if audit is not None and audit.enabled:
        audit_records = audit.export_jsonl(os.path.join(out_dir, "audit.jsonl"))
    summary = {"spans": spans, "metrics": len(telemetry.registry),
               "dropped_spans": telemetry.tracer.dropped,
               "audit_records": audit_records}
    timeline = getattr(telemetry, "timeline", None)
    if timeline is not None:
        timeline.export_jsonl(os.path.join(out_dir, "timeline.jsonl"))
        summary["timeline_windows"] = timeline.emitted
    blame = getattr(telemetry, "blame", None)
    if blame is not None:
        summary["blame_records"] = blame.export_jsonl(
            os.path.join(out_dir, "blame.jsonl"))
    flight = getattr(telemetry, "flight", None)
    if flight is not None:
        # After the timeline export above: finishing the timeline closes
        # the final window, whose callbacks may open/extend an incident.
        summary["incidents"] = flight.finish()
    return summary


def validate_telemetry_dir(out_dir) -> dict:
    """Check a telemetry dir is non-empty and schema-valid.

    Raises ``ValueError`` on any violation; returns ``{"spans": n,
    "metrics": m, ...}`` on success, with ``torn_tail`` counting the
    trailing records skipped over all four JSONL files (a run cut
    mid-write).  Used by the CI smoke job.
    """
    spans_path = os.path.join(out_dir, "spans.jsonl")
    metrics_path = os.path.join(out_dir, "metrics.json")
    for path in (spans_path, metrics_path):
        if not os.path.exists(path):
            raise ValueError(f"missing telemetry file: {path}")

    from repro.obs._jsonl import read_jsonl

    span_records, torn = read_jsonl(spans_path)
    n_spans = 0
    for lineno, span in span_records:
        missing = _SPAN_FIELDS - span.keys()
        if missing:
            raise ValueError(
                f"{spans_path}:{lineno}: span missing fields {sorted(missing)}"
            )
        if span["end_us"] < span["start_us"]:
            raise ValueError(f"{spans_path}:{lineno}: span ends before it starts")
        n_spans += 1
    if n_spans == 0:
        raise ValueError(f"{spans_path}: no spans recorded")

    snapshot = load_metrics_json(metrics_path)
    metrics = snapshot.get("metrics", [])
    if not metrics:
        raise ValueError(f"{metrics_path}: no metrics recorded")
    for m in metrics:
        for fld in ("name", "tags", "kind"):
            if fld not in m:
                raise ValueError(f"{metrics_path}: metric missing {fld!r}: {m}")
        if m["kind"] not in ("counter", "gauge", "histogram"):
            raise ValueError(f"{metrics_path}: unknown metric kind {m['kind']!r}")

    counts = {"spans": n_spans, "metrics": len(metrics)}
    audit_path = os.path.join(out_dir, "audit.jsonl")
    if os.path.exists(audit_path):
        from repro.obs.audit import load_audit_jsonl

        audit, audit_torn = load_audit_jsonl(audit_path, return_torn=True)
        counts["audit_records"] = len(audit)
        torn += audit_torn
    timeline_path = os.path.join(out_dir, "timeline.jsonl")
    if os.path.exists(timeline_path):
        from repro.obs.timeline import validate_timeline_jsonl

        tl = validate_timeline_jsonl(timeline_path)
        counts["timeline_windows"] = tl["windows"]
        counts["exemplars"] = tl["exemplars"]
        torn += tl.get("torn_tail", 0)
    blame_path = os.path.join(out_dir, "blame.jsonl")
    if os.path.exists(blame_path):
        from repro.obs.blame import validate_blame_jsonl

        blame = validate_blame_jsonl(blame_path)
        torn += blame.pop("torn_tail", 0)
        counts["blame_records"] = sum(blame.values())
    if torn:
        counts["torn_tail"] = torn
    from repro.obs.flightrecorder import list_incidents, validate_incident_dir

    incident_dirs = list_incidents(out_dir)
    if incident_dirs:
        for inc_dir in incident_dirs:
            validate_incident_dir(inc_dir)
        counts["incidents"] = len(incident_dirs)
    return counts
