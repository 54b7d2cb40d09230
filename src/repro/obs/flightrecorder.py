"""The flight recorder: in-run incident capture over the live seams.

A :class:`FlightRecorder` is the black box riding along a kernel-mode
serve.  It arms three observation seams that already exist for other
consumers — the timeline's window callback, the tracer's span sink, and
the blame recorder's ring — and keeps bounded rings over each.  Every
closed window is fed to the *streaming* SLO evaluator and anomaly
detectors (:mod:`repro.obs.slo`), whose verdicts provably match the
post-hoc ``run_detectors``/``evaluate_slos`` over the saved timeline;
when a fresh anomaly at or above the trigger severity fires, the
recorder opens an **incident**: it snapshots the ±K surrounding windows,
waits ``post_windows`` more closes (re-triggering resets the countdown,
so one sustained overload is one incident, not dozens), then dumps a
self-contained bundle::

    incident-<n>/
        incident.json   the manifest (schema repro.obs.incident/v1):
                        trigger verdict, anomaly list, SLO state at
                        capture, window indices, affected qids and
                        resources, capacity-model snapshot, run config
                        with fingerprint, per-file counts
        windows.jsonl   the captured windows as a valid (truncated)
                        repro.obs.timeline/v1 file — exact deltas,
                        loadable by every timeline tool
        spans.jsonl     span trees for the affected qids (roots plus
                        all descendants, from the span ring)
        blame.json      per-query critical-path decompositions
                        (QueryBlame dicts) for the affected qids and
                        the heaviest queries ending inside the capture
        audit.jsonl     decision records timestamped inside the capture

Everything is observe-never-perturb: the recorder reads rings the
telemetry layer populates anyway, computes on the host clock only at
window close, and writes only when an incident actually dumps.  With
``out_dir=None`` it runs in *counting mode* — incidents are detected
and manifests kept in memory, nothing touches disk — which is how the
bench harness reports incident counts on saturation entries without
perturbing the measured run.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from collections import deque
from itertools import chain

from repro.obs._jsonl import write_jsonl
from repro.obs.blame import BLAME_SCHEMA, QueryBlame, assemble_queries
from repro.obs.slo import (DEFAULT_SLOS, StreamingDetectors,
                           StreamingSloEvaluator)
from repro.obs.timeline import TIMELINE_SCHEMA

__all__ = [
    "INCIDENT_SCHEMA",
    "FlightRecorder",
    "list_incidents",
    "load_incident",
    "validate_incident_dir",
    "format_incident",
]

INCIDENT_SCHEMA = "repro.obs.incident/v1"

_SEVERITY_RANK = {"warn": 0, "critical": 1}

_INCIDENT_DIR_RE = re.compile(r"^incident-(\d+)$")


class FlightRecorder:
    """Black-box recorder + incident dumper over a telemetry bundle.

    Parameters
    ----------
    telemetry:
        The :class:`~repro.obs.telemetry.Telemetry` bundle of the run;
        a timeline must be attached before :meth:`arm`.
    out_dir:
        Directory receiving ``incident-<n>/`` bundles; None switches to
        counting mode (manifests kept in memory, nothing written).
    slos:
        SLO spec lines evaluated incrementally (state is snapshotted
        into each manifest).
    pre_windows / post_windows:
        Context captured around the trigger: up to ``pre_windows``
        windows before it plus ``post_windows`` after.
    trigger_severity:
        "warn" opens incidents on any anomaly; "critical" (default)
        only on critical ones.
    max_incidents:
        Hard cap on bundles per run (a sustained pathology should not
        fill the disk).
    config:
        The run's configuration dict, embedded in each manifest under a
        SHA-256 fingerprint so a bundle is attributable to the exact
        run that produced it.
    """

    def __init__(self, telemetry, out_dir=None, slos=DEFAULT_SLOS,
                 pre_windows: int = 4, post_windows: int = 2,
                 trigger_severity: str = "critical",
                 max_incidents: int = 16, span_ring: int = 4096,
                 max_qids: int = 8, max_audit_records: int = 512,
                 config: dict | None = None) -> None:
        if trigger_severity not in _SEVERITY_RANK:
            raise ValueError("trigger_severity must be 'warn' or 'critical'")
        self.telemetry = telemetry
        self.out_dir = out_dir
        self.pre_windows = pre_windows
        self.post_windows = post_windows
        self.trigger_severity = trigger_severity
        self.max_incidents = max_incidents
        self.max_qids = max_qids
        self.max_audit_records = max_audit_records
        self.config = config or {}
        self.slo = StreamingSloEvaluator(slos)
        self.detectors = StreamingDetectors()
        #: manifests of dumped incidents, in trigger order.
        self.incidents: list[dict] = []
        self.truncated_incidents = 0
        self._window_ring: deque[dict] = deque(maxlen=pre_windows + 1)
        #: finished Span objects, as the tracer made them; rendered to
        #: dicts only for the ones an incident dump keeps.
        self._spans: deque = deque(maxlen=span_ring)
        self._open: dict | None = None
        self._armed = False
        self._finished = False

    # -- arming --------------------------------------------------------------

    def arm(self) -> "FlightRecorder":
        """Hook the telemetry seams; idempotent."""
        if self._armed:
            return self
        tl = self.telemetry.timeline
        if tl is None:
            raise RuntimeError(
                "flight recorder needs an attached timeline "
                "(Telemetry.attach_timeline before arm)")
        tl.add_window_callback(self._on_window)
        tracer = self.telemetry.tracer
        if getattr(tracer, "enabled", False):
            tracer.set_span_sink(self._spans.append)
        self.telemetry.flight = self
        self._armed = True
        return self

    # -- seam callbacks ------------------------------------------------------

    def _on_window(self, rec: dict) -> None:
        self.slo.update(rec)
        new = self.detectors.update(rec)
        self._window_ring.append(rec)
        triggers = [a for a in new
                    if _SEVERITY_RANK[a.severity]
                    >= _SEVERITY_RANK[self.trigger_severity]]
        inc = self._open
        if inc is None:
            if not triggers:
                return
            if (len(self.incidents) >= self.max_incidents):
                self.truncated_incidents += 1
                return
            self._open = {
                "trigger": triggers[0],
                "anomalies": list(new),
                "windows": list(self._window_ring),
                "post_remaining": self.post_windows,
            }
            return
        inc["windows"].append(rec)
        inc["anomalies"].extend(new)
        if triggers:
            # Still hot: restart the post-trigger countdown so one
            # sustained pathology collapses into one incident.
            inc["post_remaining"] = self.post_windows
        else:
            inc["post_remaining"] -= 1
            if inc["post_remaining"] <= 0:
                self._dump(inc)
                self._open = None

    # -- lifecycle -----------------------------------------------------------

    def finish(self) -> int:
        """Flush any open incident; returns the incident count.

        Idempotent — safe to call from both ``Telemetry.close`` and
        ``write_telemetry_dir``.
        """
        if not self._finished:
            self._finished = True
            if self._open is not None:
                self._dump(self._open)
                self._open = None
        return len(self.incidents)

    # -- bundle assembly -----------------------------------------------------

    def _dump(self, inc: dict) -> None:
        n = len(self.incidents) + 1
        windows = inc["windows"]
        window_ids = [rec["window"] for rec in windows]
        start_us = windows[0]["start_us"]
        end_us = windows[-1]["end_us"]
        window_set = set(window_ids)

        exemplar_qids: set[int] = set()
        exemplar_rows: list[dict] = []
        store = self.telemetry.exemplars
        if store is not None:
            for ex in store.exemplars:
                if ex.window in window_set and ex.query_id is not None:
                    exemplar_qids.add(ex.query_id)
                    exemplar_rows.append(ex.to_dict())

        blame_queries = self._blame_queries(start_us, end_us, exemplar_qids)
        qids = sorted(exemplar_qids
                      | {q.qid for q in blame_queries if q.qid is not None})
        resources = sorted({res for q in blame_queries
                            for res in (set(q.wait_us) | set(q.service_us))})
        span_rows = self._span_trees(qids)
        audit_rows = self._audit_rows(start_us, end_us)

        capacity = None
        blame = self.telemetry.blame
        if blame is not None and blame.kernel is not None:
            adm = blame.admission
            completed = adm.stats.completed if adm is not None else None
            capacity = blame.capacity(completed=completed)

        fingerprint = hashlib.sha256(
            json.dumps(self.config, sort_keys=True).encode()
        ).hexdigest()[:16]
        manifest = {
            "schema": INCIDENT_SCHEMA,
            "incident": n,
            "trigger": inc["trigger"].to_dict(),
            "anomalies": [a.to_dict() for a in inc["anomalies"]],
            "slo": [r.to_dict() for r in self.slo.results()],
            "window_us": self.telemetry.timeline.window_us,
            "trigger_window": inc["trigger"].window,
            "windows": window_ids,
            "start_us": start_us,
            "end_us": end_us,
            "qids": qids,
            "resources": resources,
            "capacity": capacity,
            "config": {"fingerprint": fingerprint, **self.config},
            "counts": {
                "windows": len(windows),
                "spans": len(span_rows),
                "blame_queries": len(blame_queries),
                "audit_records": len(audit_rows),
                "exemplars": len(exemplar_rows),
            },
        }
        self.incidents.append(manifest)
        if self.out_dir is None:
            return
        bundle = os.path.join(self.out_dir, f"incident-{n}")
        os.makedirs(bundle, exist_ok=True)
        footer = {"type": "footer", "windows": len(windows),
                  "dropped_windows": 0}
        write_jsonl(os.path.join(bundle, "windows.jsonl"),
                    chain(windows, exemplar_rows, [footer]),
                    header={"type": "header", "schema": TIMELINE_SCHEMA,
                            "window_us": self.telemetry.timeline.window_us})
        write_jsonl(os.path.join(bundle, "spans.jsonl"), span_rows)
        with open(os.path.join(bundle, "blame.json"), "w") as fh:
            json.dump({"schema": BLAME_SCHEMA,
                       "queries": [q.to_dict() for q in blame_queries]},
                      fh, indent=1)
            fh.write("\n")
        write_jsonl(os.path.join(bundle, "audit.jsonl"), audit_rows)
        with open(os.path.join(bundle, "incident.json"), "w") as fh:
            json.dump(manifest, fh, indent=1)
            fh.write("\n")

    def _blame_queries(self, start_us: float, end_us: float,
                       exemplar_qids: set) -> list[QueryBlame]:
        blame = self.telemetry.blame
        if blame is None:
            return []
        queries = [q for q in assemble_queries(blame.records)
                   if start_us <= q.end_us <= end_us]
        queries.sort(key=lambda q: -q.total_us)
        kept = queries[:self.max_qids]
        kept_ids = {id(q) for q in kept}
        for q in queries[self.max_qids:]:
            if q.qid is not None and q.qid in exemplar_qids:
                kept.append(q)
                kept_ids.add(id(q))
        return kept

    def _span_trees(self, qids: list) -> list[dict]:
        """Roots whose ``attrs.qid`` is affected, plus all descendants."""
        if not qids:
            return []
        want = set(qids)
        # The ring is append-ordered and parents finish *after* their
        # children under the context-manager discipline, so resolve
        # membership in two passes: roots first, then descendants by
        # walking parent links upward.
        spans = list(self._spans)
        keep_ids = {span.span_id for span in spans
                    if span.attrs.get("qid") in want}
        grew = True
        while grew:
            grew = False
            for span in spans:
                if (span.span_id not in keep_ids
                        and span.parent_id in keep_ids):
                    keep_ids.add(span.span_id)
                    grew = True
        return [span.to_dict() for span in spans if span.span_id in keep_ids]

    def _audit_rows(self, start_us: float, end_us: float) -> list[dict]:
        audit = self.telemetry.audit
        if not getattr(audit, "enabled", False):
            return []
        rows = [r.to_dict() for r in audit.records
                if start_us <= r.t_us <= end_us]
        return rows[-self.max_audit_records:]


# ---------------------------------------------------------------------------
# Reading bundles back
# ---------------------------------------------------------------------------

def list_incidents(telemetry_dir) -> list[str]:
    """Paths of ``incident-<n>/`` bundles under a telemetry dir, by n."""
    if not os.path.isdir(telemetry_dir):
        return []
    found = []
    for name in os.listdir(telemetry_dir):
        m = _INCIDENT_DIR_RE.match(name)
        if m is None:
            continue
        path = os.path.join(telemetry_dir, name)
        if os.path.isfile(os.path.join(path, "incident.json")):
            found.append((int(m.group(1)), path))
    return [path for _, path in sorted(found)]


def load_incident(bundle_dir) -> dict:
    """Load one bundle: the manifest plus parsed evidence files."""
    with open(os.path.join(bundle_dir, "incident.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("schema") != INCIDENT_SCHEMA:
        raise ValueError(f"{bundle_dir}: not a {INCIDENT_SCHEMA} bundle")
    from repro.obs.timeline import load_timeline_jsonl
    from repro.obs.tracer import load_spans_jsonl

    out = {"manifest": manifest, "dir": bundle_dir}
    out["timeline"] = load_timeline_jsonl(
        os.path.join(bundle_dir, "windows.jsonl"))
    out["spans"], _ = load_spans_jsonl(os.path.join(bundle_dir,
                                                    "spans.jsonl"))
    with open(os.path.join(bundle_dir, "blame.json")) as fh:
        out["blame"] = json.load(fh)
    from repro.obs.audit import load_audit_jsonl

    out["audit"] = load_audit_jsonl(os.path.join(bundle_dir, "audit.jsonl"))
    return out


_MANIFEST_FIELDS = ("schema", "incident", "trigger", "anomalies", "slo",
                    "window_us", "trigger_window", "windows", "start_us",
                    "end_us", "qids", "resources", "config", "counts")


def validate_incident_dir(bundle_dir) -> dict:
    """Schema-check one bundle; raises ValueError, returns its counts.

    Beyond field presence this checks the *cross-references* that make
    a bundle self-contained evidence: the captured windows are exactly
    the manifest's indices (and contain the trigger window), every
    affected qid appears in the span trees or the blame decompositions,
    each blame decomposition is residual-free, and the manifest's
    resource list is the union over the blame queries' resources.
    """
    with open(os.path.join(bundle_dir, "incident.json")) as fh:
        manifest = json.load(fh)
    if manifest.get("schema") != INCIDENT_SCHEMA:
        raise ValueError(f"{bundle_dir}: not a {INCIDENT_SCHEMA} bundle")
    for fld in _MANIFEST_FIELDS:
        if fld not in manifest:
            raise ValueError(f"{bundle_dir}: manifest missing {fld!r}")
    for fld in ("detector", "window", "severity", "detail"):
        if fld not in manifest["trigger"]:
            raise ValueError(
                f"{bundle_dir}: trigger missing {fld!r}")
    if "fingerprint" not in manifest["config"]:
        raise ValueError(f"{bundle_dir}: config missing fingerprint")

    from repro.obs.timeline import validate_timeline_jsonl, load_timeline_jsonl

    windows_path = os.path.join(bundle_dir, "windows.jsonl")
    validate_timeline_jsonl(windows_path)
    tl = load_timeline_jsonl(windows_path)
    indices = [rec["window"] for rec in tl.windows]
    if indices != manifest["windows"]:
        raise ValueError(
            f"{bundle_dir}: windows.jsonl holds {indices}, manifest "
            f"claims {manifest['windows']}")
    if manifest["trigger_window"] not in indices:
        raise ValueError(
            f"{bundle_dir}: trigger window {manifest['trigger_window']} "
            f"not captured")

    from repro.obs.tracer import load_spans_jsonl

    spans, _ = load_spans_jsonl(os.path.join(bundle_dir, "spans.jsonl"))
    span_qids = {s["attrs"].get("qid") for s in spans}
    with open(os.path.join(bundle_dir, "blame.json")) as fh:
        blame_doc = json.load(fh)
    if blame_doc.get("schema") != BLAME_SCHEMA:
        raise ValueError(f"{bundle_dir}: blame.json schema mismatch")
    blame_qids = set()
    for row in blame_doc.get("queries", []):
        q = QueryBlame.from_dict(row)
        if abs(q.residual_us) > 1e-6:
            raise ValueError(
                f"{bundle_dir}: blame for task {q.task} has residual "
                f"{q.residual_us:.3f} us")
        if q.qid is not None:
            blame_qids.add(q.qid)
    for qid in manifest["qids"]:
        if qid not in span_qids and qid not in blame_qids:
            raise ValueError(
                f"{bundle_dir}: qid {qid} in manifest but in neither "
                f"spans.jsonl nor blame.json")
    resources = sorted({res for row in blame_doc.get("queries", [])
                        for res in (set(row.get("wait_us", {}))
                                    | set(row.get("service_us", {})))})
    if resources != manifest["resources"]:
        raise ValueError(
            f"{bundle_dir}: blame resources {resources} != manifest "
            f"{manifest['resources']}")

    from repro.obs.audit import load_audit_jsonl

    audit = load_audit_jsonl(os.path.join(bundle_dir, "audit.jsonl"))
    return {
        "windows": len(tl.windows),
        "spans": len(spans),
        "blame_queries": len(blame_doc.get("queries", [])),
        "audit_records": len(audit),
        "qids": len(manifest["qids"]),
    }


def format_incident(incident: dict) -> str:
    """Render a loaded bundle as the ``repro explain --incident`` walk."""
    man = incident["manifest"]
    trig = man["trigger"]
    lines = [
        f"incident {man['incident']}: [{trig['severity']}] "
        f"{trig['detector']} @ window {trig['window']}",
        f"  {trig['detail']}",
        f"  capture: windows {man['windows'][0]}..{man['windows'][-1]} "
        f"({len(man['windows'])} windows, "
        f"{man['start_us']:.0f}..{man['end_us']:.0f} us)",
        f"  config fingerprint: {man['config']['fingerprint']}",
    ]
    extra = [a for a in man["anomalies"]
             if a != trig]
    if extra:
        lines.append(f"  {len(extra)} further anomalies during capture:")
        for a in extra[:8]:
            lines.append(f"    [{a['severity']}] {a['detector']} "
                         f"@ window {a['window']}: {a['detail']}")
        if len(extra) > 8:
            lines.append(f"    ... and {len(extra) - 8} more")
    lines.append("  SLO state at capture:")
    for r in man["slo"]:
        lines.append(f"    {r['verdict']:>8s}  {r['slo']} "
                     f"[{r['windows_passed']}/{r['windows_evaluated']}]")
    cap = man.get("capacity")
    if cap:
        knee = cap.get("knee_qps")
        lines.append(
            f"  capacity: bottleneck {cap.get('bottleneck')} at "
            f"{cap.get('bottleneck_utilization', 0.0):.1%}"
            + (f", knee ~{knee:.1f} qps" if knee else ""))
    if man["qids"]:
        lines.append(f"  affected qids: {man['qids']}")
    if man["resources"]:
        lines.append(f"  resources on the critical paths: "
                     f"{man['resources']}")
    from repro.obs.blame import QueryBlame, format_query_blame

    for row in incident.get("blame", {}).get("queries", [])[:3]:
        lines.append("")
        lines.append(format_query_blame(QueryBlame.from_dict(row)))
    counts = man["counts"]
    lines.append("")
    lines.append(
        f"  evidence: {counts['windows']} windows, {counts['spans']} "
        f"spans, {counts['blame_queries']} blame queries, "
        f"{counts['audit_records']} audit records")
    return "\n".join(lines)
