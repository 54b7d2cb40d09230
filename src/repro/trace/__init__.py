"""I/O trace tooling (Section III of the paper).

Provides the trace representation, parsers for the two formats the paper
used (UMass SPC search-engine traces and DiskMon captures), a synthetic
web-search trace generator with the same four signatures the paper
identifies (read-dominant, locality, random reads, skipped reads), an
analyzer that *measures* those signatures, and a replayer that drives any
simulated block device with a trace.
"""

from repro.trace.record import Trace, TraceRecord
from repro.trace.generator import WebSearchTraceConfig, generate_websearch_trace, trace_from_engine
from repro.trace.umass import parse_spc, write_spc
from repro.trace.diskmon import parse_diskmon, write_diskmon
from repro.trace.analyzer import TraceAnalysis, analyze_trace, figure1_series
from repro.trace.capture import TracingDevice
from repro.trace.replay import ReplayResult, replay_trace

__all__ = [
    "Trace",
    "TraceRecord",
    "WebSearchTraceConfig",
    "generate_websearch_trace",
    "trace_from_engine",
    "parse_spc",
    "write_spc",
    "parse_diskmon",
    "write_diskmon",
    "TraceAnalysis",
    "analyze_trace",
    "figure1_series",
    "TracingDevice",
    "ReplayResult",
    "replay_trace",
]
