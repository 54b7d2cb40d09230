"""The flight recorder: in-run incident capture over the live seams.

A :class:`FlightRecorder` is the black box riding along a kernel-mode
serve.  It hangs off the timeline's window callback: every closed window
is fed to the *streaming* SLO evaluator and anomaly detectors
(:mod:`repro.obs.slo`), whose verdicts provably match the post-hoc
``run_detectors``/``evaluate_slos`` over the saved timeline.  When a
fresh anomaly at or above the trigger severity fires, the recorder opens
an **incident**: it takes the :data:`PRE_WINDOWS` windows before the
trigger, waits :data:`POST_WINDOWS` more closes (re-triggering resets
the countdown, so one sustained overload is one incident, not dozens),
then dumps the incident's manifest (schema ``repro.obs.incident/v2``:
trigger verdict, anomaly list, SLO state at capture, window indices and
bounds, affected qids and resources, capacity-model snapshot, run config
with fingerprint) as one line of ``DIR/incidents.jsonl``.

The manifest is all an incident writes: its evidence is already in the
same directory, and :func:`load_incidents` slices it back out of the
files a reader parses anyway::

    windows   timeline.jsonl, by the manifest's window indices
    spans     spans.jsonl, the trees of the spans tagged with its qids
    blame     blame.jsonl, its qids' decompositions ending inside the
              capture, heaviest first
    audit     audit.jsonl, the records stamped inside the capture

A manifest line is flushed after the span and blame streams, so a reader
following a running run finds the evidence of every manifest it reads.

Everything is observe-never-perturb: the recorder computes on the host
clock only at window close and writes only when an incident dumps.  With
``out_dir=None`` it runs in *counting mode* — incidents are detected and
manifests kept in memory, nothing touches disk — which is how the bench
harness reports incident counts on saturation entries without perturbing
the measured run.
"""

from __future__ import annotations

import hashlib
import json
import os
import weakref
from collections import deque
from dataclasses import dataclass

from repro.obs._jsonl import JsonlWriter, read_jsonl
from repro.obs.audit import AuditTrail, load_audit_jsonl
from repro.obs.blame import (BlameLog, QueryBlame, assemble_queries,
                             format_query_blame, load_blame_jsonl)
from repro.obs.slo import (DEFAULT_SLOS, StreamingDetectors,
                           StreamingSloEvaluator)
from repro.obs.timeline import Timeline, load_timeline_jsonl
from repro.obs.tracer import SpanLog, load_spans_jsonl

__all__ = [
    "INCIDENT_SCHEMA",
    "FlightRecorder",
    "Incident",
    "IncidentLog",
    "load_incidents",
    "format_incident",
]

INCIDENT_SCHEMA = "repro.obs.incident/v2"
#: the incident log's file name in a telemetry directory
INCIDENTS_FILE = "incidents.jsonl"

_SEVERITY_RANK = {"warn": 0, "critical": 1}

# An incident's context (windows before the trigger, quiet windows
# before it closes), the incidents per run, and an incident's heaviest
# blame queries (exemplar qids join them).
PRE_WINDOWS = 4
POST_WINDOWS = 2
MAX_INCIDENTS = 16
MAX_QIDS = 8


class FlightRecorder:
    """Black-box recorder + incident dumper over a telemetry bundle.

    Parameters
    ----------
    telemetry:
        The :class:`~repro.obs.telemetry.Telemetry` bundle of the run;
        a timeline must be attached before :meth:`arm`.
    out_dir:
        None switches to counting mode (manifests kept in memory, nothing
        written); otherwise the telemetry's own ``out_dir``, whose
        ``incidents.jsonl`` receives the manifests.  Any other directory
        raises ``ValueError``: an incident's evidence is that directory's
        files.
    trigger_severity:
        "warn" opens incidents on any anomaly; "critical" (default)
        only on critical ones.
    config:
        The run's configuration dict, embedded in each manifest under a
        SHA-256 fingerprint so an incident is attributable to the exact
        run that produced it.

    The :data:`~repro.obs.slo.DEFAULT_SLOS` are evaluated incrementally
    and their state is snapshotted into each manifest.
    """

    def __init__(self, telemetry, out_dir=None,
                 trigger_severity: str = "critical",
                 config: dict | None = None) -> None:
        if trigger_severity not in _SEVERITY_RANK:
            raise ValueError("trigger_severity must be 'warn' or 'critical'")
        own = telemetry.out_dir
        if out_dir is not None and (
                own is None
                or os.path.abspath(own) != os.path.abspath(out_dir)):
            raise ValueError(f"incidents go to the telemetry's own out_dir "
                             f"({own}), not to {out_dir}")
        self._telemetry = weakref.ref(telemetry)
        self.out_dir = out_dir
        self.trigger_severity = trigger_severity
        self.config = config or {}
        self.slo = StreamingSloEvaluator(DEFAULT_SLOS)
        self.detectors = StreamingDetectors()
        #: manifests of dumped incidents, in trigger order.
        self.incidents: list[dict] = []
        self.truncated_incidents = 0
        #: ``(index, start_us, end_us)`` of the latest windows
        self._window_ring: deque[tuple] = deque(maxlen=PRE_WINDOWS + 1)
        self._open: dict | None = None
        #: ``incidents.jsonl``'s writer, opened by the first dump
        self._writer: JsonlWriter | None = None
        self._armed = False
        self._finished = False

    @property
    def telemetry(self):
        """The bundle hooked, held weakly: an armed recorder is the
        telemetry's (``telemetry.flight``), not the reverse."""
        return self._telemetry()

    # -- arming --------------------------------------------------------------

    def arm(self) -> "FlightRecorder":
        """Hook the timeline's window callback; idempotent."""
        if self._armed:
            return self
        tel = self.telemetry
        tl = tel.timeline
        if tl is None:
            raise RuntimeError(
                "flight recorder needs an attached timeline "
                "(Telemetry.attach_timeline before arm)")
        tl.add_window_callback(self._on_window)
        # What a dump reads, kept here: none of it points back at us.
        self._window_us = tl.window_us
        self._exemplars = tel.exemplars
        tel.flight = self
        self._armed = True
        return self

    # -- seam callbacks ------------------------------------------------------

    def _on_window(self, rec: dict) -> None:
        self.slo.update(rec)
        new = self.detectors.update(rec)
        bounds = (rec["window"], rec["start_us"], rec["end_us"])
        self._window_ring.append(bounds)
        triggers = [a for a in new
                    if _SEVERITY_RANK[a.severity]
                    >= _SEVERITY_RANK[self.trigger_severity]]
        inc = self._open
        if inc is None:
            if not triggers:
                return
            if len(self.incidents) >= MAX_INCIDENTS:
                self.truncated_incidents += 1
                return
            self._open = {
                "trigger": triggers[0],
                "anomalies": list(new),
                "windows": list(self._window_ring),
                "post_remaining": POST_WINDOWS,
            }
            return
        inc["windows"].append(bounds)
        inc["anomalies"].extend(new)
        if triggers:
            # Still hot: restart the post-trigger countdown so one
            # sustained pathology collapses into one incident.
            inc["post_remaining"] = POST_WINDOWS
        else:
            inc["post_remaining"] -= 1
            if inc["post_remaining"] <= 0:
                self._dump(inc)
                self._open = None

    # -- lifecycle -----------------------------------------------------------

    def finish(self) -> int:
        """Flush any open incident and write the incident log's footer;
        returns the incident count.

        Idempotent — safe to call from both ``Telemetry.close`` and
        ``write_telemetry_dir``.
        """
        if not self._finished:
            self._finished = True
            if self._open is not None:
                self._dump(self._open)
                self._open = None
            if self._writer is not None:
                self._writer.write_trailer({
                    "type": "footer", "incidents": len(self.incidents),
                    "truncated_incidents": self.truncated_incidents})
                self._writer.close()
        return len(self.incidents)

    # -- the manifest --------------------------------------------------------

    def _dump(self, inc: dict) -> None:
        windows = inc["windows"]
        window_ids = [w for w, _, _ in windows]
        start_us = windows[0][1]
        end_us = windows[-1][2]
        window_set = set(window_ids)

        exemplar_qids: set[int] = set()
        store = self._exemplars
        if store is not None:
            for ex in store.exemplars:
                if ex.window in window_set and ex.query_id is not None:
                    exemplar_qids.add(ex.query_id)

        tel = self.telemetry
        blame = tel.blame
        queries = [] if blame is None else sorted(
            (q for q in assemble_queries(blame.records)
             if start_us <= q.end_us <= end_us), key=lambda q: -q.total_us)
        # The heaviest queries and the tail exemplars name the qids; the
        # resources are those of every decomposition of a named qid in
        # the capture, the ones load_incidents reads back.
        qids = sorted(exemplar_qids | {q.qid for q in queries[:MAX_QIDS]
                                       if q.qid is not None})
        want = set(qids)
        resources = sorted({res for q in queries if q.qid in want
                            for res in (*q.wait_us, *q.service_us)})

        capacity = None
        if blame is not None and blame.kernel is not None:
            adm = blame.admission
            completed = adm.stats.completed if adm is not None else None
            capacity = blame.capacity(completed=completed)

        fingerprint = hashlib.sha256(
            json.dumps(self.config, sort_keys=True).encode()
        ).hexdigest()[:16]
        manifest = {
            "schema": INCIDENT_SCHEMA,
            "incident": len(self.incidents) + 1,
            "trigger": inc["trigger"].to_dict(),
            "anomalies": [a.to_dict() for a in inc["anomalies"]],
            "slo": [r.to_dict() for r in self.slo.results()],
            "window_us": self._window_us,
            "trigger_window": inc["trigger"].window,
            "windows": window_ids,
            "start_us": start_us,
            "end_us": end_us,
            "qids": qids,
            "resources": resources,
            "capacity": capacity,
            "config": {"fingerprint": fingerprint, **self.config},
        }
        self.incidents.append(manifest)
        if self.out_dir is None:
            return
        # The evidence first: whoever reads this manifest finds the spans
        # and blame records it names already on disk.
        for stream in (tel.tracer._stream,
                       blame._stream if blame is not None else None):
            if stream is not None:
                stream.flush()
        if self._writer is None:
            self._writer = JsonlWriter(
                os.path.join(self.out_dir, INCIDENTS_FILE))
        self._writer.write(manifest)
        self._writer.flush()


# ---------------------------------------------------------------------------
# Reading incidents back
# ---------------------------------------------------------------------------

_MANIFEST_FIELDS = ("schema", "incident", "trigger", "anomalies", "slo",
                    "window_us", "trigger_window", "windows", "start_us",
                    "end_us", "qids", "resources", "config")


@dataclass
class Incident:
    """One incident: its manifest and the evidence sliced for it out of
    the telemetry directory's own files (empty where a file is absent)."""

    manifest: dict
    windows: list[dict]
    spans: list[dict]
    blame: list[QueryBlame]
    audit: list[dict]

    @property
    def counts(self) -> dict:
        """Evidence per kind, as ``repro incidents`` lists it."""
        return {
            "windows": len(self.windows),
            "spans": len(self.spans),
            "blame_queries": len(self.blame),
            "audit_records": len(self.audit),
            "qids": len(self.manifest["qids"]),
        }


@dataclass
class IncidentLog:
    """A parsed ``incidents.jsonl`` and the evidence files its incidents
    were sliced from (None: absent); ``torn_tail`` counts a cut final
    line skipped (a manifest still being written)."""

    path: str
    incidents: list[Incident]
    torn_tail: int = 0
    timeline: Timeline | None = None
    spans: SpanLog | None = None
    blame: BlameLog | None = None
    audit: AuditTrail | None = None

    @property
    def parts(self) -> list:
        """The log and every evidence file it parsed."""
        return [p for p in (self, self.timeline, self.spans, self.blame,
                            self.audit) if p is not None]


def load_incidents(telemetry_dir) -> IncidentLog:
    """Load ``incidents.jsonl`` under a telemetry dir, slicing each
    incident's evidence out of the directory's other files; raises
    ValueError (see :func:`_incident_log`).

    ``timeline.jsonl`` is parsed whenever present (``repro top`` draws
    it); the span, blame and audit files only when there is an incident
    log to slice them for.  No log at all is no incidents.
    """
    def optional(name, loader):
        path = os.path.join(telemetry_dir, name)
        return loader(path) if os.path.exists(path) else None

    path = os.path.join(telemetry_dir, INCIDENTS_FILE)
    timeline = optional("timeline.jsonl", load_timeline_jsonl)
    if not os.path.exists(path):
        return IncidentLog(path, [], timeline=timeline)
    return _incident_log(path, timeline,
                        optional("spans.jsonl", load_spans_jsonl),
                        optional("blame.jsonl", load_blame_jsonl),
                        optional("audit.jsonl", load_audit_jsonl))


def _incident_log(path, timeline: Timeline | None, spans: SpanLog | None,
                  blame: BlameLog | None,
                  audit: AuditTrail | None) -> IncidentLog:
    """Parse the incident log at ``path`` against already-parsed evidence
    files (None: absent, contributing no evidence); raises ValueError.

    Beyond each manifest's fields this checks what makes an incident
    evidence, against the files present: the trigger window is among
    the captured ones and every captured window is in the timeline;
    every affected qid resolves to a span or a blame decomposition;
    each decomposition is residual-free; and the manifest's resources
    are the union over them.
    """
    records, torn = read_jsonl(path)
    manifests, footer = [], None
    for lineno, rec in records:
        if rec.get("type") == "footer":
            footer = rec
        else:
            manifests.append(_checked_manifest(f"{path}:{lineno}", rec))
    if footer is not None and footer.get("incidents") != len(manifests):
        raise ValueError(f"{path}: footer claims {footer.get('incidents')} "
                         f"incidents, the file holds {len(manifests)}")
    by_window = (None if timeline is None
                 else {rec["window"]: rec for rec in timeline.windows})
    children: dict = {}
    for span in spans.spans if spans is not None else ():
        children.setdefault(span["parent_id"], []).append(span)
    queries = assemble_queries(blame.records) if blame is not None else []
    incidents = []
    for man in manifests:
        where = f"{path}: incident {man['incident']}"
        if man["trigger_window"] not in man["windows"]:
            raise ValueError(f"{where}: trigger window "
                             f"{man['trigger_window']} not captured")
        windows = []
        if by_window is not None:
            missing = [w for w in man["windows"] if w not in by_window]
            if missing:
                raise ValueError(f"{where}: windows {missing} are not in "
                                 f"{timeline.path}")
            windows = [by_window[w] for w in man["windows"]]
        start, end = man["start_us"], man["end_us"]
        want = set(man["qids"])
        tree = ([] if spans is None
                else _tagged_trees(spans.spans, children, want))
        picked = sorted((q for q in queries if q.qid in want
                         and start <= q.end_us <= end),
                        key=lambda q: -q.total_us)
        for q in picked:
            if abs(q.residual_us) > 1e-6:
                raise ValueError(f"{where}: blame for task {q.task} has "
                                 f"residual {q.residual_us:.3f} us")
        if spans is not None or blame is not None:
            found = ({s["attrs"].get("qid") for s in tree}
                     | {q.qid for q in picked})
            lost = sorted(want - found)
            if lost:
                raise ValueError(f"{where}: qids {lost} are in neither "
                                 f"spans.jsonl nor blame.jsonl")
        if blame is not None:
            resources = sorted({res for q in picked
                                for res in (*q.wait_us, *q.service_us)})
            if resources != man["resources"]:
                raise ValueError(f"{where}: blame resources {resources} != "
                                 f"manifest {man['resources']}")
        inside = ([r for r in audit.records if start <= r["t_us"] <= end]
                  if audit is not None else [])
        incidents.append(Incident(man, windows, tree, picked, inside))
    return IncidentLog(path, incidents, torn, timeline, spans, blame, audit)


def _checked_manifest(where: str, manifest: dict) -> dict:
    if manifest.get("schema") != INCIDENT_SCHEMA:
        raise ValueError(f"{where}: not a {INCIDENT_SCHEMA} manifest")
    for fld in _MANIFEST_FIELDS:
        if fld not in manifest:
            raise ValueError(f"{where}: manifest missing {fld!r}")
    for fld in ("detector", "window", "severity", "detail"):
        if fld not in manifest["trigger"]:
            raise ValueError(f"{where}: trigger missing {fld!r}")
    if "fingerprint" not in manifest["config"]:
        raise ValueError(f"{where}: config missing fingerprint")
    return manifest


def _tagged_trees(spans: list[dict], children: dict, qids: set) -> list[dict]:
    """The spans tagged with one of ``qids`` and all their descendants,
    in file order."""
    todo = [s["span_id"] for s in spans if s["attrs"].get("qid") in qids]
    keep: set = set()
    while todo:
        sid = todo.pop()
        if sid not in keep:
            keep.add(sid)
            todo.extend(child["span_id"] for child in children.get(sid, ()))
    return [s for s in spans if s["span_id"] in keep]


def format_incident(incident: Incident) -> str:
    """Render a loaded incident as the ``repro explain --incident`` walk."""
    man = incident.manifest
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
    for q in incident.blame[:3]:
        lines.append("")
        lines.append(format_query_blame(q))
    counts = incident.counts
    lines.append("")
    lines.append(
        f"  evidence: {counts['windows']} windows, {counts['spans']} "
        f"spans, {counts['blame_queries']} blame queries, "
        f"{counts['audit_records']} audit records")
    return "\n".join(lines)
