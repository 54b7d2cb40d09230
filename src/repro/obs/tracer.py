"""Nested spans over the simulated clock, exported as JSONL.

A :class:`Tracer` answers *where a query's microseconds went*: the cache
manager opens a ``query`` span, the cache layers open probe/fetch spans
inside it, and every device access lands as a leaf span — all stamped
with :class:`~repro.sim.clock.VirtualClock` time, so span durations
reconcile exactly with the simulation's latency accounting.

Span JSONL schema (one object per line)::

    {"span_id": 3, "parent_id": 1, "name": "ssd-cache.read",
     "start_us": 12.5, "end_us": 45.2, "dur_us": 32.7,
     "attrs": {"lba": 0, "nbytes": 131072}}

The hot path is zero-cost when tracing is off: components hold the
shared :data:`NULL_TRACER` (or a plain ``None`` device hook), whose
``span``/``record`` are constant no-ops that allocate nothing.

Armed, a span costs one frame.  :meth:`Tracer.record` (a leaf measured
outside: every device access) builds and keeps its span in its own
frame.  A scoped span is finished by :meth:`Tracer.close`; ``with
tracer.span(...)`` opens it in ``Span.__enter__``, and a span on the
serving path — the manager's ``query``, the caches' ``result.lookup``
and ``list.fetch`` — is opened by its caller inline, with the same C
calls::

    span = Span()
    stack = tracer.stack
    span.parent_id = stack[-1]
    span.span_id = next(tracer.ids)
    stack.append(span.span_id)
    span.name = "result.lookup"
    span.attrs = attrs = {}
    span.start_us = tracer.clock._now_us
    try:
        ...
    finally:
        tracer.close(span)

Ids are issued in open order and the parent is the innermost span open
at that moment, exactly as ``with tracer.span(...)`` does it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from repro.obs._jsonl import JsonlWriter, read_jsonl, write_jsonl

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "SpanLog",
           "load_spans_jsonl"]

_SPAN_FIELDS = {"span_id", "parent_id", "name", "start_us", "end_us",
                "dur_us", "attrs"}

#: Spans the in-memory store holds (past it, counted in ``dropped``).
MAX_SPANS = 1_000_000


class Span:
    """One span: its own context manager while open, the finished record
    once closed.  There is no constructor: :meth:`Tracer.span`,
    :meth:`Tracer.record` or an inline open (module docstring) fill the
    slots; :meth:`to_dict` is for whoever reads it — stream writer,
    export, incident dump.
    """

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "start_us",
                 "end_us", "attrs")

    def set(self, **attrs) -> None:
        """Attach attributes to an in-flight span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        t = self._tracer
        stack = t.stack
        self.parent_id = stack[-1]
        self.span_id = sid = next(t.ids)
        stack.append(sid)
        self.start_us = t.clock._now_us  # the slot: no property frame
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._tracer.close(self)
        return False

    @property
    def dur_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "dur_us": self.end_us - self.start_us,
            "attrs": self.attrs,
        }


class Tracer:
    """Collects nested spans stamped with a :class:`VirtualClock`.

    :data:`MAX_SPANS` bounds memory on long runs: past the cap new spans
    are counted in :attr:`dropped` instead of stored (open-span nesting
    keeps working, so parent ids stay correct for what is kept).

    :meth:`open_stream` switches the tracer to **streaming mode**: each
    finished span is written to a JSONL file immediately instead of
    accumulating in memory, so an arbitrarily long ``repro run
    --telemetry`` holds zero spans resident.  The cap does not apply
    while streaming (nothing is stored, nothing is dropped).
    """

    enabled = True

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.dropped = 0
        #: ids of the open spans, innermost last, above a ``None``
        #: sentinel: ``stack[-1]`` is the parent of the next span
        self.stack: list[int | None] = [None]
        #: span ids, issued in open order
        self.ids = count(1)
        self._sink = None
        #: the open stream's ``write``, or None: spans are stored
        self._write = None
        #: the :class:`JsonlWriter` once streaming (kept after it closes)
        self._stream: JsonlWriter | None = None

    def set_span_sink(self, sink) -> None:
        """Feed every finished span to ``sink`` *before* storage or
        streaming — the flight recorder's ring hangs off this, so it
        sees spans even when streaming mode retains nothing."""
        self._sink = sink

    def _route(self) -> None:
        """Bind :attr:`_write` when the stream opens or closes, not per
        span (the store and :data:`MAX_SPANS` are read per span)."""
        stream = self._stream
        self._write = (stream.write if stream is not None
                       and not stream.closed else None)

    def span(self, name: str, **attrs) -> Span:
        """Open a nested span: ``with tracer.span("query", qid=7) as sp:``."""
        span = Span()
        span._tracer = self
        span.name = name
        span.attrs = attrs
        return span

    def close(self, span: Span) -> None:
        """Finish the innermost open span (see the module docstring) and
        keep it: the sink first, then the stream or the capped store."""
        self.stack.pop()
        span.end_us = self.clock._now_us
        if self._sink is not None:
            self._sink(span)
        if self._write is not None:
            self._write(span.to_dict())
        elif len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1

    def record(self, name: str, start_us: float, end_us: float, **attrs) -> None:
        """Append a leaf span measured externally (e.g. a device access),
        kept as :meth:`close` keeps one."""
        span = Span()
        span.span_id = next(self.ids)
        span.parent_id = self.stack[-1]
        span.name = name
        span.start_us = start_us
        span.end_us = end_us
        span.attrs = attrs
        if self._sink is not None:
            self._sink(span)
        if self._write is not None:
            self._write(span.to_dict())
        elif len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1

    # -- streaming -----------------------------------------------------------

    @property
    def span_count(self) -> int:
        """Spans recorded so far: streamed to disk plus held in memory
        (spans finishing after :meth:`close_stream` are stored again)."""
        streamed = self._stream.written if self._stream is not None else 0
        return streamed + len(self.spans)

    def open_stream(self, path) -> None:
        """Start writing finished spans straight to ``path`` as JSONL.

        Spans already held in memory are flushed to the file first, so
        switching mid-run loses nothing.
        """
        if self._stream is not None:
            raise RuntimeError("tracer is already streaming")
        self._stream = JsonlWriter(path)
        for span in self.spans:
            self._stream.write(span.to_dict())
        self.spans = []
        self._route()

    def close_stream(self) -> None:
        """Flush and close the streaming file (path/count stay queryable)."""
        if self._stream is not None:
            self._stream.close()
            self._route()

    # -- export --------------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write one JSON object per span; returns the span count.

        In streaming mode the spans are already on disk: exporting to
        the stream's own path just finalizes the file; exporting to a
        different path copies the streamed file there.
        """
        if self._stream is not None:
            self._stream.export_to(path)  # closes the writer
            self._route()
            return self._stream.written
        return write_jsonl(path, (s.to_dict() for s in self.spans))


class NullTracer:
    """The disabled tracer: every operation is a constant no-op."""

    enabled = False

    class _NullSpan:
        __slots__ = ()

        def set(self, **attrs) -> None:
            pass

        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb) -> bool:
            return False

    _SPAN = _NullSpan()
    spans: tuple = ()
    dropped = 0
    span_count = 0

    def span(self, name: str, **attrs):
        return self._SPAN

    def record(self, name: str, start_us: float, end_us: float, **attrs) -> None:
        pass

    def close_stream(self) -> None:
        pass

    def export_jsonl(self, path) -> int:
        return write_jsonl(path, ())


#: Shared do-nothing tracer; components default to this so tracing costs
#: one attribute access when disabled.
NULL_TRACER = NullTracer()


@dataclass
class SpanLog:
    """A parsed ``spans.jsonl``: span dicts in file order; ``torn_tail``
    counts the cut final record skipped (a run killed mid-write)."""

    path: str
    spans: list[dict]
    torn_tail: int = 0


def load_spans_jsonl(path) -> SpanLog:
    """Load and schema-check a ``spans.jsonl`` file: every span carries
    every field and ends no earlier than it starts."""
    records, torn = read_jsonl(path)
    for lineno, span in records:
        missing = _SPAN_FIELDS - span.keys()
        if missing:
            raise ValueError(
                f"{path}:{lineno}: span missing fields {sorted(missing)}")
        if span["end_us"] < span["start_us"]:
            raise ValueError(f"{path}:{lineno}: span ends before it starts")
    return SpanLog(path, [rec for _, rec in records], torn)
