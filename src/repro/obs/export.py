"""Exposition: OpenMetrics text, JSON snapshots, telemetry dirs.

A telemetry directory (``repro run --telemetry DIR``) holds::

    spans.jsonl     one span object per line (see repro.obs.tracer)
    metrics.json    MetricsRegistry.snapshot() (schema repro.obs.metrics/v1)
    metrics.prom    the same snapshot as OpenMetrics text exposition
    audit.jsonl     the decision audit trail (present when auditing is on)
    timeline.jsonl  windowed time series (present when a timeline is
                    attached; schema repro.obs.timeline/v1)
    blame.jsonl     per-request kernel blame records (present for runs
                    under the concurrency kernel; repro.obs.blame/v1)
    incidents.jsonl flight-recorder incident manifests (present when the
                    recorder triggered; schema repro.obs.incident/v2),
                    whose evidence is sliced out of the files above

:func:`load_telemetry_dir` parses every one of them once, through the
one loader of each kind, and is what every reader of a directory uses.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.obs.audit import AuditTrail, load_audit_jsonl
from repro.obs.blame import BlameLog, load_blame_jsonl
from repro.obs.flightrecorder import (INCIDENTS_FILE, Incident, IncidentLog,
                                      _incident_log)
from repro.obs.timeline import Timeline, load_timeline_jsonl
from repro.obs.tracer import SpanLog, load_spans_jsonl

__all__ = [
    "openmetrics_text",
    "write_metrics_json",
    "write_telemetry_dir",
    "load_metrics_json",
    "TelemetryDir",
    "load_telemetry_dir",
]


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


def _om_rows(snapshot: dict):
    """A metrics.json snapshot as exposition rows.

    Yields ``(name, tags, kind, data)`` where ``data`` is the scalar
    value for counters/gauges and a ``{count, sum, quantiles}`` dict for
    histograms.
    """
    if snapshot.get("schema") != "repro.obs.metrics/v1":
        raise ValueError("openmetrics_text: not a repro.obs metrics snapshot")
    for m in snapshot.get("metrics", []):
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


def openmetrics_text(snapshot: dict) -> str:
    """Render a metrics.json snapshot as OpenMetrics text.

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
    for name, tags, kind, data in _om_rows(snapshot):
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


def write_metrics_json(snapshot: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=1)
        fh.write("\n")


def load_metrics_json(path) -> dict:
    """Load and schema-check a ``metrics.json`` snapshot."""
    with open(path) as fh:
        snapshot = json.load(fh)
    if snapshot.get("schema") != "repro.obs.metrics/v1":
        raise ValueError(f"{path}: not a repro.obs metrics snapshot")
    for m in snapshot.get("metrics", []):
        for fld in ("name", "tags", "kind"):
            if fld not in m:
                raise ValueError(f"{path}: metric missing {fld!r}: {m}")
        if m["kind"] not in ("counter", "gauge", "histogram"):
            raise ValueError(f"{path}: unknown metric kind {m['kind']!r}")
    return snapshot


def write_telemetry_dir(telemetry, out_dir) -> dict:
    """Write spans.jsonl / metrics.json / metrics.prom / audit.jsonl
    (plus timeline.jsonl / blame.jsonl when recorded).

    ``telemetry`` is a :class:`~repro.obs.telemetry.Telemetry`; its
    bridges are sampled first (so wear/GC/WA gauges are current).  A
    telemetry built with ``Telemetry(out_dir=DIR)`` has its streamed
    files finalised in place, and ``out_dir`` must be ``DIR``: any other
    directory raises ``ValueError`` before anything is written.
    Returns a summary dict; its ``snapshot`` is the registry snapshot
    written to ``metrics.json``.
    """
    own = telemetry.out_dir
    if own is not None and os.path.abspath(own) != os.path.abspath(out_dir):
        raise ValueError(f"this telemetry streams into {own}; it cannot be "
                         f"written to {out_dir}")
    os.makedirs(out_dir, exist_ok=True)
    telemetry.collect()
    spans = telemetry.tracer.export_jsonl(os.path.join(out_dir, "spans.jsonl"))
    snapshot = telemetry.registry.snapshot()
    write_metrics_json(snapshot, os.path.join(out_dir, "metrics.json"))
    with open(os.path.join(out_dir, "metrics.prom"), "w") as fh:
        fh.write(openmetrics_text(snapshot))
    audit_records = 0
    if telemetry.audit.enabled:
        audit_records = telemetry.audit.export_jsonl(
            os.path.join(out_dir, "audit.jsonl"))
    summary = {"snapshot": snapshot, "spans": spans,
               "metrics": len(snapshot["metrics"]),
               "dropped_spans": telemetry.tracer.dropped,
               "audit_records": audit_records}
    if telemetry.timeline is not None:
        summary["timeline_windows"] = telemetry.timeline.export_jsonl(
            os.path.join(out_dir, "timeline.jsonl"))
    if telemetry.blame is not None:
        summary["blame_records"] = telemetry.blame.export_jsonl(
            os.path.join(out_dir, "blame.jsonl"))
    flight = telemetry.flight
    if flight is not None:
        # After the timeline export above: finishing the timeline closes
        # the final window, whose callbacks may open/extend an incident.
        summary["incidents"] = flight.finish()
    return summary


@dataclass
class TelemetryDir:
    """Every artifact of one telemetry directory, each parsed once.

    ``audit``, ``timeline``, ``blame`` and ``incident_log`` are None
    when the run wrote no such file.
    """

    path: str
    spans: SpanLog
    metrics: dict
    audit: AuditTrail | None
    timeline: Timeline | None
    blame: BlameLog | None
    incident_log: IncidentLog | None

    @property
    def incidents(self) -> list[Incident]:
        """Every incident, its evidence sliced out of the files above."""
        return [] if self.incident_log is None else self.incident_log.incidents

    @property
    def parts(self) -> list:
        """The JSONL-backed artifacts."""
        own = [self.spans, self.audit, self.timeline, self.blame,
               self.incident_log]
        return [p for p in own if p is not None]

    @property
    def torn_tail(self) -> int:
        """Trailing records skipped over every file (a run cut mid-write)."""
        return sum(p.torn_tail for p in self.parts)


def load_telemetry_dir(out_dir) -> TelemetryDir:
    """Load a telemetry dir: every file through its kind's loader.

    Raises ``ValueError`` on any violation, including a directory that
    recorded no span, no metric or (with a timeline) no window.
    """
    def path(name):
        return os.path.join(out_dir, name)

    for name in ("spans.jsonl", "metrics.json"):
        if not os.path.exists(path(name)):
            raise ValueError(f"missing telemetry file: {path(name)}")
    spans = load_spans_jsonl(path("spans.jsonl"))
    if not spans.spans:
        raise ValueError(f"{path('spans.jsonl')}: no spans recorded")
    metrics = load_metrics_json(path("metrics.json"))
    if not metrics.get("metrics"):
        raise ValueError(f"{path('metrics.json')}: no metrics recorded")

    def optional(name, loader):
        return loader(path(name)) if os.path.exists(path(name)) else None

    audit = optional("audit.jsonl", load_audit_jsonl)
    timeline = optional("timeline.jsonl", load_timeline_jsonl)
    if timeline is not None and not timeline.windows:
        raise ValueError(f"{timeline.path}: no windows recorded")
    blame = optional("blame.jsonl", load_blame_jsonl)
    incident_log = optional(INCIDENTS_FILE, lambda p: _incident_log(
        p, timeline, spans, blame, audit))
    return TelemetryDir(out_dir, spans, metrics, audit, timeline, blame,
                        incident_log)
