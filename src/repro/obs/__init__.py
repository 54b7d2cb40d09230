"""repro.obs — the observability subsystem.

First-class telemetry for the reproduction: typed instruments
(:class:`Counter`, :class:`Gauge`, log-bucketed :class:`Histogram` with
exact percentile extraction), a :class:`MetricsRegistry` of tagged
instruments, a zero-cost-when-disabled :class:`Tracer` producing nested
spans on the simulated clock, a :class:`CacheEventMetrics` bridge from
the :class:`~repro.core.events.CacheEvents` bus, and exposition as
OpenMetrics text, JSON snapshots and JSONL span dumps.

Everything hangs off one :class:`Telemetry` object::

    from repro.obs import Telemetry, write_telemetry_dir

    tel = Telemetry()
    manager = CacheManager(cfg, hierarchy, index, telemetry=tel)
    for query in log:
        manager.process_query(query)
    write_telemetry_dir(tel, "telemetry/")
"""

from repro._hot import HOT, HotCounters
from repro._row import Row, row_of
from repro.obs.audit import (
    NULL_AUDIT,
    AuditLog,
    AuditRecord,
    AuditTrail,
    NullAudit,
    explain_subject,
    format_explanation,
    load_audit_jsonl,
)
from repro.obs.blame import (
    BLAME_SCHEMA,
    BlameLog,
    BlameRecorder,
    QueryBlame,
    assemble_queries,
    blame_profiles,
    capacity_model,
    format_blame_report,
    format_query_blame,
    load_blame_jsonl,
)
from repro.obs.cache_metrics import CacheEventMetrics, CacheStatsMetrics
from repro.obs.export import (
    TelemetryDir,
    load_metrics_json,
    load_telemetry_dir,
    openmetrics_text,
    write_metrics_json,
    write_telemetry_dir,
)
from repro.obs.flash_metrics import FlashDeviceMetrics
from repro.obs.flightrecorder import (
    INCIDENT_SCHEMA,
    FlightRecorder,
    Incident,
    IncidentLog,
    format_incident,
    load_incidents,
)
from repro.obs.kernel_metrics import KernelMetrics
from repro.obs.instruments import (
    DEFAULT_PERCENTILES,
    GAUGE_MERGE_MODES,
    Counter,
    Gauge,
    Histogram,
)
from repro.obs.profiler import (
    PROFILE_SCHEMA,
    Profiler,
    format_profile,
    func_label,
    load_folded,
    load_profile,
    subsystem_of,
    write_folded,
    write_profile,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.report import (
    format_stage_breakdown,
    format_stage_comparison,
    stage_summary,
)
from repro.obs.slo import (
    DEFAULT_SLOS,
    Anomaly,
    SloResult,
    SloSpec,
    StreamingDetectors,
    StreamingSloEvaluator,
    evaluate_slo,
    evaluate_slos,
    parse_slo,
    run_detectors,
)
from repro.obs.telemetry import Telemetry, stage_of_channel
from repro.obs.timeline import (
    TIMELINE_SCHEMA,
    Exemplar,
    ExemplarStore,
    Timeline,
    TimelineRecorder,
    format_top_frame,
    load_timeline_jsonl,
    merge_windows,
    sparkline,
    steady_state_window,
    sub_histogram,
    window_point,
    window_series,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanLog,
    Tracer,
    load_spans_jsonl,
)
from repro.obs._jsonl import read_jsonl

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_PERCENTILES",
    "MetricsRegistry",
    "Span",
    "SpanLog",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "AuditLog",
    "AuditRecord",
    "AuditTrail",
    "NullAudit",
    "NULL_AUDIT",
    "load_audit_jsonl",
    "explain_subject",
    "format_explanation",
    "GAUGE_MERGE_MODES",
    "CacheEventMetrics",
    "CacheStatsMetrics",
    "FlashDeviceMetrics",
    "KernelMetrics",
    "Telemetry",
    "stage_of_channel",
    "TIMELINE_SCHEMA",
    "TimelineRecorder",
    "Timeline",
    "Exemplar",
    "ExemplarStore",
    "load_timeline_jsonl",
    "merge_windows",
    "sub_histogram",
    "steady_state_window",
    "window_series",
    "sparkline",
    "SloSpec",
    "SloResult",
    "Anomaly",
    "parse_slo",
    "evaluate_slo",
    "evaluate_slos",
    "run_detectors",
    "DEFAULT_SLOS",
    "window_point",
    "StreamingDetectors",
    "StreamingSloEvaluator",
    "INCIDENT_SCHEMA",
    "FlightRecorder",
    "Incident",
    "IncidentLog",
    "load_incidents",
    "format_incident",
    "format_top_frame",
    "load_spans_jsonl",
    "read_jsonl",
    "BLAME_SCHEMA",
    "BlameRecorder",
    "BlameLog",
    "QueryBlame",
    "assemble_queries",
    "blame_profiles",
    "capacity_model",
    "format_blame_report",
    "format_query_blame",
    "load_blame_jsonl",
    "openmetrics_text",
    "write_metrics_json",
    "load_metrics_json",
    "write_telemetry_dir",
    "TelemetryDir",
    "load_telemetry_dir",
    "stage_summary",
    "format_stage_breakdown",
    "format_stage_comparison",
    "HOT",
    "HotCounters",
    "Row",
    "row_of",
    "PROFILE_SCHEMA",
    "Profiler",
    "subsystem_of",
    "func_label",
    "format_profile",
    "write_profile",
    "load_profile",
    "write_folded",
    "load_folded",
]
