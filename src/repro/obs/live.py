"""The live observability plane: scrape and stream a run while it runs.

:class:`LiveServer` exposes an in-progress ``repro run`` over HTTP on a
background daemon thread (stdlib only)::

    /metrics          the live registry as OpenMetrics text (the scrape
                      endpoint; content type per the OpenMetrics spec)
    /windows?since=K  NDJSON window stream: the timeline header followed
                      by every closed window with index > K (tail the
                      run by polling with the last index seen)
    /status           one JSON document (schema repro.obs.live/v1): run
                      info, recent windows' derived series, streaming
                      SLO verdicts, anomaly counts, open/dumped
                      incidents — everything ``repro top`` renders

The serve path stays untouched: the server reads shared structures the
telemetry layer maintains anyway (the registry, a bounded window deque
fed by the timeline's window callback, the flight recorder's streaming
verdicts when one is armed), and handler threads retry on the rare
``RuntimeError`` from reading a structure mid-mutation instead of
locking the hot path.

``repro top`` renders the same picture either from a live port
(:func:`fetch_status`) or post-hoc from a telemetry dir
(:func:`status_from_dir`); :func:`format_top_frame` is the shared
renderer.
"""

from __future__ import annotations

import json
import os
import threading
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse
from urllib.request import urlopen

from repro.obs.export import openmetrics_text
from repro.obs.slo import (DEFAULT_SLOS, StreamingDetectors,
                           StreamingSloEvaluator)
from repro.obs.timeline import TIMELINE_SCHEMA, derive_window, sparkline

__all__ = [
    "LIVE_SCHEMA",
    "OPENMETRICS_CONTENT_TYPE",
    "LiveServer",
    "fetch_status",
    "status_from_dir",
    "format_top_frame",
]

LIVE_SCHEMA = "repro.obs.live/v1"

OPENMETRICS_CONTENT_TYPE = ("application/openmetrics-text; "
                            "version=1.0.0; charset=utf-8")

#: Derived series `repro top` draws sparklines for, in display order.
TOP_SERIES = ("queries", "hit_ratio", "p99_response_us", "write_amp",
              "queue_depth", "wait_fraction")


class LiveServer:
    """Serve a run's registry, window stream, and incident state."""

    def __init__(self, telemetry, port: int = 0, host: str = "127.0.0.1",
                 flight=None, max_windows: int = 512,
                 run_info: dict | None = None) -> None:
        self.telemetry = telemetry
        self.flight = flight
        self.run_info = run_info or {}
        self.windows: deque[dict] = deque(maxlen=max_windows)
        self.windows_seen = 0
        if flight is None:
            self._slo = StreamingSloEvaluator(DEFAULT_SLOS)
            self._detectors = StreamingDetectors()
        else:
            # The armed recorder already evaluates every window; reuse
            # its state instead of running a second evaluator.
            self._slo = flight.slo
            self._detectors = flight.detectors
        self._host = host
        self._port = port
        self._httpd = None
        self._thread = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "LiveServer":
        tl = self.telemetry.timeline
        if tl is None:
            raise RuntimeError("live server needs an attached timeline")
        tl.add_window_callback(self._on_window)
        handler = _make_handler(self)
        self._httpd = ThreadingHTTPServer((self._host, self._port), handler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(target=self._httpd.serve_forever,
                                        name="repro-live", daemon=True)
        self._thread.start()
        return self

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    def url(self) -> str:
        return f"http://{self._host}:{self.port}"

    def close(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # -- the window seam -----------------------------------------------------

    def _on_window(self, rec: dict) -> None:
        if self.flight is None:
            self._slo.update(rec)
            self._detectors.update(rec)
        # With a flight recorder armed its own callback (registered
        # first) has already updated the shared evaluator state.
        self.windows.append(rec)
        self.windows_seen += 1

    # -- documents -----------------------------------------------------------

    def status(self) -> dict:
        tl = self.telemetry.timeline
        clock = self.telemetry.clock
        return _status_doc(
            self.run_info,
            now_us=clock.now_us if clock is not None else None,
            window_us=tl.window_us if tl is not None else None,
            windows_seen=self.windows_seen,
            recent=list(self.windows)[-32:],
            slo=self._slo.results(),
            anomalies=self._detectors.anomalies,
            incident_open=(self.flight is not None
                           and self.flight._open is not None),
            manifests=self.flight.incidents if self.flight is not None else [],
        )

    def windows_ndjson(self, since: int = -1) -> str:
        tl = self.telemetry.timeline
        lines = [json.dumps({
            "type": "header", "schema": TIMELINE_SCHEMA,
            "window_us": tl.window_us if tl is not None else None,
        })]
        for rec in list(self.windows):
            if rec["window"] > since:
                lines.append(json.dumps(rec))
        return "\n".join(lines) + "\n"


def _make_handler(live: LiveServer):
    class _Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):  # silence per-request stderr
            pass

        def _send(self, body: str, content_type: str,
                  code: int = 200) -> None:
            payload = body.encode("utf-8")
            self.send_response(code)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def _retrying(self, fn):
            # Handler threads read structures the serving thread
            # mutates; a rare mid-mutation RuntimeError is retried
            # rather than taking a lock on the hot path.
            for _ in range(8):
                try:
                    return fn()
                except RuntimeError:
                    continue
            return fn()

        def do_GET(self):  # noqa: N802 (stdlib handler naming)
            url = urlparse(self.path)
            if url.path == "/metrics":
                body = self._retrying(
                    lambda: openmetrics_text(live.telemetry.registry))
                self._send(body, OPENMETRICS_CONTENT_TYPE)
            elif url.path == "/windows":
                qs = parse_qs(url.query)
                try:
                    since = int(qs.get("since", ["-1"])[0])
                except ValueError:
                    self._send("bad since parameter\n", "text/plain", 400)
                    return
                body = self._retrying(lambda: live.windows_ndjson(since))
                self._send(body, "application/x-ndjson")
            elif url.path == "/status":
                body = self._retrying(
                    lambda: json.dumps(live.status(), indent=1))
                self._send(body + "\n", "application/json")
            else:
                self._send("not found\n", "text/plain", 404)

    return _Handler


# ---------------------------------------------------------------------------
# Consuming a plane: live or post-hoc
# ---------------------------------------------------------------------------

def _status_doc(run: dict, now_us, window_us, windows_seen: int, recent,
                slo, anomalies, incident_open: bool, manifests) -> dict:
    """The ``repro.obs.live/v1`` status document, from live state or a
    saved directory alike."""
    return {
        "schema": LIVE_SCHEMA,
        "run": run,
        "now_us": now_us,
        "window_us": window_us,
        "windows_seen": windows_seen,
        "recent": [{"window": rec["window"],
                    "derived": rec.get("derived") or derive_window(rec)}
                   for rec in recent],
        "slo": [r.to_dict() for r in slo],
        "anomalies": {
            "total": len(anomalies),
            "critical": sum(1 for a in anomalies
                            if a.severity == "critical"),
            "recent": [a.to_dict() for a in anomalies[-8:]],
        },
        "incidents": {
            "open": incident_open,
            "dumped": [{"incident": m["incident"], "trigger": m["trigger"],
                        "windows": m["windows"], "qids": m["qids"]}
                       for m in manifests],
        },
    }


def fetch_status(target: str, timeout: float = 5.0) -> dict:
    """GET ``/status`` from ``PORT`` or ``HOST:PORT`` or a full URL."""
    if "://" not in target:
        target = (f"http://127.0.0.1:{target}" if ":" not in target
                  else f"http://{target}")
    with urlopen(target.rstrip("/") + "/status", timeout=timeout) as resp:
        return json.loads(resp.read().decode("utf-8"))


def status_from_dir(telemetry_dir) -> dict:
    """Build the same status document post-hoc from a telemetry dir."""
    from repro.obs.flightrecorder import list_incidents
    from repro.obs.slo import evaluate_slos, run_detectors
    from repro.obs.timeline import load_timeline_jsonl

    path = os.path.join(telemetry_dir, "timeline.jsonl")
    if not os.path.exists(path):
        raise ValueError(
            f"no timeline at {path} (run with --timeline to record one)")
    tl = load_timeline_jsonl(path)
    manifests = []
    for bundle in list_incidents(telemetry_dir):
        with open(os.path.join(bundle, "incident.json")) as fh:
            manifests.append(json.load(fh))
    return _status_doc(
        {"dir": str(telemetry_dir)},
        now_us=tl.windows[-1]["end_us"] if tl.windows else None,
        window_us=tl.window_us,
        windows_seen=len(tl.windows),
        recent=tl.windows[-32:],
        slo=evaluate_slos(DEFAULT_SLOS, tl.windows),
        anomalies=run_detectors(tl.windows),
        incident_open=False,
        manifests=manifests,
    )


def format_top_frame(status: dict, width: int = 60) -> str:
    """Render one ``repro top`` frame from a status document."""
    run = status.get("run", {})
    where = run.get("dir") or run.get("policy") or ""
    head = f"repro top — {where}" if where else "repro top"
    now = status.get("now_us")
    if now is not None:
        head += f"  t={now / 1e6:.2f}s"
    head += f"  windows={status.get('windows_seen', 0)}"
    lines = [head, ""]
    recent = status.get("recent", [])
    for series in TOP_SERIES:
        pts = [w["derived"].get(series) for w in recent]
        present = [v for v in pts if v is not None]
        if not present:
            continue
        spark = sparkline(pts, width=width)
        last = present[-1]
        if series == "hit_ratio" or series == "wait_fraction":
            label = f"{last:.1%}"
        elif series == "p99_response_us":
            label = (f"{last / 1e3:.1f}ms" if last >= 1e3
                     else f"{last:.0f}us")
        else:
            label = f"{last:g}"
        lines.append(f"  {series:<16s} {spark} {label}")
    lines.append("")
    for r in status.get("slo", []):
        mark = {"met": "ok  ", "violated": "FAIL",
                "no-data": "?   "}.get(r["verdict"], "?   ")
        lines.append(f"  {mark} {r['slo']} "
                     f"[{r['windows_passed']}/{r['windows_evaluated']}]")
    anom = status.get("anomalies", {})
    lines.append("")
    lines.append(f"  anomalies: {anom.get('total', 0)} "
                 f"({anom.get('critical', 0)} critical)")
    for a in anom.get("recent", [])[-4:]:
        lines.append(f"    [{a['severity']}] {a['detector']} "
                     f"@ {a['window']}: {a['detail']}")
    inc = status.get("incidents", {})
    dumped = inc.get("dumped", [])
    state = "OPEN" if inc.get("open") else "none open"
    lines.append("")
    lines.append(f"  incidents: {len(dumped)} dumped, {state}")
    for m in dumped[-4:]:
        t = m["trigger"]
        lines.append(f"    incident-{m['incident']}: [{t['severity']}] "
                     f"{t['detector']} @ window {t['window']}")
    return "\n".join(lines)
