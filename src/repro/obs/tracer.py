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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs._jsonl import JsonlWriter, read_jsonl, write_jsonl

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER",
           "load_spans_jsonl"]


@dataclass
class Span:
    """One finished span."""

    span_id: int
    parent_id: int | None
    name: str
    start_us: float
    end_us: float
    attrs: dict = field(default_factory=dict)

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
            "dur_us": self.dur_us,
            "attrs": self.attrs,
        }


class _SpanCtx:
    """An open span; a context manager that finishes it on exit."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "start_us")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> None:
        """Attach attributes to an in-flight span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "_SpanCtx":
        t = self._tracer
        self.span_id = t._next_id
        t._next_id += 1
        self.parent_id = t._stack[-1] if t._stack else None
        t._stack.append(self.span_id)
        self.start_us = t.clock.now_us
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self._tracer
        t._stack.pop()
        t._append(Span(
            span_id=self.span_id,
            parent_id=self.parent_id,
            name=self.name,
            start_us=self.start_us,
            end_us=t.clock.now_us,
            attrs=self.attrs,
        ))
        return False


class Tracer:
    """Collects nested spans stamped with a virtual clock.

    ``max_spans`` bounds memory on long runs: past the cap new spans are
    counted in :attr:`dropped` instead of stored (open-span nesting keeps
    working, so parent ids stay correct for what is kept).

    :meth:`open_stream` switches the tracer to **streaming mode**: each
    finished span is written to a JSONL file immediately instead of
    accumulating in memory, so an arbitrarily long ``repro run
    --telemetry`` holds zero spans resident.  ``max_spans`` does not
    apply while streaming (nothing is stored, nothing is dropped).
    """

    enabled = True

    def __init__(self, clock=None, max_spans: int = 1_000_000) -> None:
        self.clock = clock
        self.max_spans = max_spans
        self.spans: list[Span] = []
        self.dropped = 0
        #: optional callable fed every finished span *before* storage or
        #: streaming — the flight recorder's ring hangs off this, so it
        #: sees spans even when streaming mode retains nothing.
        self.span_sink = None
        self._stack: list[int] = []
        self._next_id = 1
        #: the :class:`JsonlWriter` once streaming (kept after it closes)
        self._stream: JsonlWriter | None = None

    def span(self, name: str, **attrs) -> _SpanCtx:
        """Open a nested span: ``with tracer.span("query", qid=7) as sp:``."""
        return _SpanCtx(self, name, attrs)

    def record(self, name: str, start_us: float, end_us: float, **attrs) -> None:
        """Append a leaf span measured externally (e.g. a device access)."""
        span_id = self._next_id
        self._next_id += 1
        self._append(Span(
            span_id=span_id,
            parent_id=self._stack[-1] if self._stack else None,
            name=name,
            start_us=start_us,
            end_us=end_us,
            attrs=attrs,
        ))

    def _append(self, span: Span) -> None:
        sink = self.span_sink
        if sink is not None:
            sink(span)
        if self._stream is not None and not self._stream.closed:
            self._stream.write(span.to_dict())
            return
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            return
        self.spans.append(span)

    # -- streaming -----------------------------------------------------------

    @property
    def streaming(self) -> bool:
        return self._stream is not None

    @property
    def span_count(self) -> int:
        """Spans recorded so far (stored or already streamed to disk)."""
        return self._stream.written if self.streaming else len(self.spans)

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

    def close_stream(self) -> None:
        """Flush and close the streaming file (path/count stay queryable)."""
        if self._stream is not None:
            self._stream.close()

    # -- export --------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        return [s.to_dict() for s in self.spans]

    def export_jsonl(self, path) -> int:
        """Write one JSON object per span; returns the span count.

        In streaming mode the spans are already on disk: exporting to
        the stream's own path just finalizes the file; exporting to a
        different path copies the streamed file there.
        """
        if self._stream is not None:
            self._stream.export_to(path)
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
    streaming = False
    span_count = 0
    span_sink = None

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


def load_spans_jsonl(path) -> tuple[list[dict], int]:
    """Load a ``spans.jsonl`` file; returns ``(spans, torn_tail)``.

    A torn final line (a live run cut mid-write) is skipped and counted
    rather than raised.
    """
    records, torn = read_jsonl(path)
    return [rec for _, rec in records], torn
