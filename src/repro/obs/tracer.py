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

from repro.obs._jsonl import JsonlWriter, read_jsonl, write_jsonl

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER",
           "load_spans_jsonl"]


class Span:
    """One span: its own context manager while open, the finished record
    once closed.  Only :meth:`Tracer.span` / :meth:`Tracer.record` make
    one (they fill the slots; there is no constructor); :meth:`to_dict`
    is for whoever reads it — stream writer, export, incident dump.
    """

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "start_us",
                 "end_us", "attrs")

    def set(self, **attrs) -> None:
        """Attach attributes to an in-flight span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        t = self._tracer
        stack = t._stack
        self.span_id = t._next_id
        t._next_id += 1
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self.start_us = t.clock._now_us  # the slot: no property frame
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self._tracer
        t._stack.pop()
        self.end_us = t.clock._now_us
        t._append(self)
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
        self._sink = None
        self._stack: list[int] = []
        self._next_id = 1
        #: the :class:`JsonlWriter` once streaming (kept after it closes)
        self._stream: JsonlWriter | None = None
        self._route()

    def set_span_sink(self, sink) -> None:
        """Feed every finished span to ``sink`` *before* storage or
        streaming — the flight recorder's ring hangs off this, so it
        sees spans even when streaming mode retains nothing."""
        self._sink = sink
        self._route()

    def _route(self) -> None:
        """Bind :attr:`_append`: sink and open stream are looked up when
        one of them changes, not per span (list and cap are read live)."""
        sink = self._sink
        streaming = self._stream is not None and not self._stream.closed
        write = self._stream.write if streaming else None

        def append(span: Span) -> None:
            if sink is not None:
                sink(span)
            if write is not None:
                write(span.to_dict())
            elif len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.dropped += 1
        self._append = append

    def span(self, name: str, **attrs) -> Span:
        """Open a nested span: ``with tracer.span("query", qid=7) as sp:``."""
        span = Span()
        span._tracer = self
        span.name = name
        span.attrs = attrs
        return span

    def record(self, name: str, start_us: float, end_us: float, **attrs) -> None:
        """Append a leaf span measured externally (e.g. a device access)."""
        span = Span()
        span.name = name
        span.attrs = attrs
        span.span_id = self._next_id
        self._next_id += 1
        span.parent_id = self._stack[-1] if self._stack else None
        span.start_us = start_us
        span.end_us = end_us
        self._append(span)

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


def load_spans_jsonl(path) -> tuple[list[dict], int]:
    """Load a ``spans.jsonl`` file; returns ``(spans, torn_tail)``.

    A torn final line (a live run cut mid-write) is skipped and counted
    rather than raised.
    """
    records, torn = read_jsonl(path)
    return [rec for _, rec in records], torn
