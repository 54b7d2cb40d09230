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

Armed, a span costs one frame, the tracer call that keeps it.
:meth:`Tracer.leaf` (a leaf measured outside: every device access)
takes the finished span's values; a scoped span is finished by
:meth:`Tracer.close`.  ``with tracer.span(...)`` opens one in
``Span.__enter__``, and a span on the serving path — the manager's
``query``, the caches' ``result.lookup`` and ``list.fetch`` — is opened
by its caller inline, its state held in locals::

    stack = tracer.stack
    parent = stack[-1]
    sid = next(tracer.ids)
    stack.append(sid)
    start = tracer.clock._now_us
    try:
        level = ...
    except BaseException:
        # what was known when it opened
        tracer.close(sid, parent, "result.lookup", start, _NO_ATTRS(()))
        raise
    tracer.close(sid, parent, "result.lookup", start, _LOOKUP((level,)))

Ids are issued in open order and the parent is the innermost span open
at that moment (0 below the outermost: a root), exactly as ``with
tracer.span(...)`` does it.

Finished spans are kept as machine values, not one object each: a
span's id, parent id, name (a code into the tracer's name table), start
and end time are one fixed-width packed record appended to a
``bytearray`` — one C call where per-field arrays took five appends —
and its ``attrs`` row goes to a list.  :attr:`Tracer.spans` is a
read-only sequence over them that builds a :class:`Span` per item read;
:meth:`Tracer.export_jsonl` renders dicts straight from the values
(:func:`span_dict`).  A telemetry that streams into a directory
(``Telemetry(out_dir=DIR)``) has its tracer write each finished span to
``DIR/spans.jsonl`` instead, keeping none.

A span's ``attrs`` is a :class:`~repro._row.Row`: the values as one
tuple under keys shared by every span of its shape, read as a read-only
mapping.  The serving path's spans and the device leaves build their
row from the values they hold (the shape is a module constant, the
leaf's name is formed once per device); ``tracer.span(...)`` keeps a
dict while the span is open, for :meth:`Span.set`, and
:meth:`Span.__exit__` converts it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count
from struct import Struct

from repro._row import SHAPES, shape
from repro.obs._jsonl import JsonlWriter, read_jsonl, write_jsonl

__all__ = ["Span", "Tracer", "NullTracer", "NULL_TRACER", "SpanLog",
           "load_spans_jsonl", "span_dict"]

_SPAN_FIELDS = {"span_id", "parent_id", "name", "start_us", "end_us",
                "dur_us", "attrs"}

#: Spans the in-memory store holds (past it, counted in ``dropped``).
MAX_SPANS = 1_000_000

#: A kept span's fixed-width values, packed: span id, parent id (0: a
#: root), name code, start and end time.
_RECORD = Struct("=qqIdd")
_pack = _RECORD.pack


def span_dict(span_id: int, parent_id: int, name: str, start_us: float,
              end_us: float, attrs) -> dict:
    """A finished span's values (parent 0: a root) as its JSONL dict."""
    return {
        "span_id": span_id,
        "parent_id": parent_id or None,
        "name": name,
        "start_us": start_us,
        "end_us": end_us,
        "dur_us": end_us - start_us,
        "attrs": attrs.to_dict(),
    }


class Span:
    """One span: the context manager ``tracer.span(...)`` hands out, and
    the object :attr:`Tracer.spans` builds for a finished span it is
    asked for.  There is no constructor; :meth:`to_dict` is for whoever
    reads it.  ``attrs`` is a dict only while a ``tracer.span(...)`` is
    open; a finished span's is a read-only row.
    """

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "start_us",
                 "end_us", "attrs")

    def set(self, **attrs) -> None:
        """Attach attributes to an in-flight span."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        t = self._tracer
        stack = t.stack
        self.parent_id = stack[-1] or None
        self.span_id = sid = next(t.ids)
        stack.append(sid)
        self.start_us = t.clock._now_us  # the slot: no property frame
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        attrs = self.attrs
        keys = tuple(attrs)
        self.attrs = row = (SHAPES.get(keys) or shape(keys))(attrs.values())
        t = self._tracer
        self.end_us = t.clock._now_us
        t.close(self.span_id, self.parent_id or 0, self.name, self.start_us,
                row)
        return False

    @property
    def dur_us(self) -> float:
        return self.end_us - self.start_us

    def to_dict(self) -> dict:
        return span_dict(self.span_id, self.parent_id, self.name,
                         self.start_us, self.end_us, self.attrs)


def _built(span_id, parent_id, name, start_us, end_us, attrs) -> Span:
    span = Span()
    span.span_id = span_id
    span.parent_id = parent_id or None
    span.name = name
    span.start_us = start_us
    span.end_us = end_us
    span.attrs = attrs
    return span


class _Spans(Sequence):
    """A tracer's kept spans, oldest first, read-only: each item read is
    a :class:`Span` built from the packed records."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __len__(self) -> int:
        return len(self._tracer._attrs)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        t = self._tracer
        i = range(len(self))[i]  # a negative index counts from the end
        span_id, parent_id, code, start_us, end_us = _RECORD.unpack_from(
            t._records, i * _RECORD.size)
        return _built(span_id, parent_id, list(t._codes)[code], start_us,
                      end_us, t._attrs[i])

    def __iter__(self):
        for values in self._tracer._values():
            yield _built(*values)

    def __repr__(self) -> str:
        return f"<{len(self)} spans>"


class Tracer:
    """Collects nested spans stamped with a :class:`VirtualClock`.

    :data:`MAX_SPANS` bounds memory on long runs: past the cap new spans
    are counted in :attr:`dropped` instead of stored (open-span nesting
    keeps working, so parent ids stay correct for what is kept).

    A tracer built by ``Telemetry(out_dir=DIR)`` streams: each finished
    span is written to ``DIR/spans.jsonl`` at once, so an arbitrarily
    long ``repro run --telemetry`` holds zero spans resident and the cap
    does not apply.  The file is chosen before the first span and
    finalised by :meth:`export_jsonl`; a span after that raises.
    """

    enabled = True

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.dropped = 0
        #: ids of the open spans, innermost last, above a 0 sentinel:
        #: ``stack[-1]`` is the parent of the next span (0: a root)
        self.stack: list[int] = [0]
        #: span ids, issued in open order
        self.ids = count(1)
        #: the name table: name -> its code in the packed records
        self._codes: dict[str, int] = {}
        #: the kept spans' fixed-width values, one :data:`_RECORD` each
        self._records = bytearray()
        #: their ``attrs`` rows, in the same order
        self._attrs: list = []
        self._sink = None
        #: the span file's :class:`JsonlWriter` when streaming, else None
        self._stream: JsonlWriter | None = None
        #: its ``write``, bound once, or None: spans are stored
        self._write = None

    def _values(self):
        """The kept spans' values, oldest first, as :func:`span_dict`
        takes them."""
        names = list(self._codes)
        for (span_id, parent_id, code, start_us, end_us), attrs in zip(
                _RECORD.iter_unpack(self._records), self._attrs):
            yield span_id, parent_id, names[code], start_us, end_us, attrs

    @property
    def spans(self) -> Sequence:
        """The kept spans, a read-only sequence of :class:`Span`."""
        return _Spans(self)

    def _stream_into(self, path) -> None:
        """Write every span to ``path`` instead of keeping it; called by
        ``Telemetry(out_dir=)`` as it builds the tracer."""
        self._stream = JsonlWriter(path)
        self._write = self._stream.write

    def set_span_sink(self, sink) -> None:
        """Feed every finished span to ``sink`` *before* storage or
        streaming, as one tuple of :func:`span_dict`'s arguments — the
        flight recorder's ring hangs off this, so it sees spans even
        when streaming mode retains nothing."""
        self._sink = sink

    def span(self, name: str, **attrs) -> Span:
        """Open a nested span: ``with tracer.span("query", qid=7) as sp:``."""
        span = Span()
        span._tracer = self
        span.name = name
        span.attrs = attrs
        return span

    def close(self, span_id: int, parent_id: int, name: str,
              start_us: float, attrs) -> None:
        """Finish the innermost open span (see the module docstring) and
        keep it: the sink first, then the stream or the capped store."""
        self.stack.pop()
        end_us = self.clock._now_us
        if self._sink is not None:
            self._sink((span_id, parent_id, name, start_us, end_us, attrs))
        if self._write is not None:
            self._write(span_dict(span_id, parent_id, name, start_us, end_us,
                                  attrs))
        elif len(self._attrs) < MAX_SPANS:
            try:
                code = self._codes[name]
            except KeyError:
                code = self._codes[name] = len(self._codes)
            self._records += _pack(span_id, parent_id, code, start_us, end_us)
            self._attrs.append(attrs)
        else:
            self.dropped += 1

    def record(self, name: str, start_us: float, end_us: float, **attrs) -> None:
        """Append a leaf span measured externally, its attributes given
        as keywords (:meth:`leaf` takes them as a row)."""
        keys = tuple(attrs)
        self.leaf(name, start_us, end_us,
                  (SHAPES.get(keys) or shape(keys))(attrs.values()))

    def leaf(self, name: str, start_us: float, end_us: float, attrs) -> None:
        """Append a leaf span measured externally (every device access),
        ``attrs`` a :class:`~repro._row.Row`; kept as :meth:`close`
        keeps one."""
        span_id = next(self.ids)
        parent_id = self.stack[-1]
        if self._sink is not None:
            self._sink((span_id, parent_id, name, start_us, end_us, attrs))
        if self._write is not None:
            self._write(span_dict(span_id, parent_id, name, start_us, end_us,
                                  attrs))
        elif len(self._attrs) < MAX_SPANS:
            try:
                code = self._codes[name]
            except KeyError:
                code = self._codes[name] = len(self._codes)
            self._records += _pack(span_id, parent_id, code, start_us, end_us)
            self._attrs.append(attrs)
        else:
            self.dropped += 1

    # -- export --------------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write one JSON object per span; returns the span count.

        A streaming tracer's spans are already in ``path``, its own
        file: the file is finalised there (see
        :meth:`~repro.obs._jsonl.JsonlWriter.finish`).
        """
        if self._stream is not None:
            return self._stream.finish(path)
        return write_jsonl(path, (span_dict(*v) for v in self._values()))


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

    def span(self, name: str, **attrs):
        return self._SPAN

    def record(self, name: str, start_us: float, end_us: float, **attrs) -> None:
        pass

    def leaf(self, name: str, start_us: float, end_us: float, attrs) -> None:
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
