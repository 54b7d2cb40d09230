"""The object-per-record :class:`Tracer` and :class:`AuditLog`, kept as
the test oracle for the packed-record stores in ``repro.obs``.

Copied from ``repro/obs/tracer.py`` and ``repro/obs/audit.py`` at
commit 42f8b46, before finished spans and audit records became packed
machine values: every span a 7-slot :class:`Span` kept in a list, every audit
record an :class:`~repro.obs.audit.AuditRecord` tuple in a bounded
deque.  Trimmed to what ``tests/test_obs_store_oracle.py`` drives.
Slow and obviously right.
"""

from __future__ import annotations

from collections import deque
from itertools import count
from typing import Any

from repro._row import SHAPES, Row, shape
from repro.obs._jsonl import write_jsonl
from repro.obs.audit import AuditRecord

__all__ = ["Span", "Tracer", "AuditLog", "MAX_SPANS", "AUDIT_CAPACITY"]

MAX_SPANS = 1_000_000
AUDIT_CAPACITY = 200_000

_LIFECYCLE = shape(("level", "nbytes", "reason"))
_FLUSH = shape(("lba", "nbytes", "entries"))
_STAGE = shape(("stage",))


class Span:
    """One span: its own context manager while open, the kept record
    once closed."""

    __slots__ = ("_tracer", "span_id", "parent_id", "name", "start_us",
                 "end_us", "attrs")

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        t = self._tracer
        stack = t.stack
        self.parent_id = stack[-1]
        self.span_id = sid = next(t.ids)
        stack.append(sid)
        self.start_us = t.clock._now_us
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        attrs = self.attrs
        keys = tuple(attrs)
        self.attrs = (SHAPES.get(keys) or shape(keys))(attrs.values())
        self._tracer.close(self)
        return False

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "dur_us": self.end_us - self.start_us,
            "attrs": self.attrs.to_dict(),
        }


class Tracer:
    """Nested spans, each finished one kept as its :class:`Span`."""

    enabled = True

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.dropped = 0
        self.stack: list[int | None] = [None]
        self.ids = count(1)

    def span(self, name: str, **attrs) -> Span:
        span = Span()
        span._tracer = self
        span.name = name
        span.attrs = attrs
        return span

    def close(self, span: Span) -> None:
        self.stack.pop()
        span.end_us = self.clock._now_us
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1

    def leaf(self, name: str, start_us: float, end_us: float, attrs) -> None:
        span = Span()
        span.span_id = next(self.ids)
        span.parent_id = self.stack[-1]
        span.name = name
        span.start_us = start_us
        span.end_us = end_us
        span.attrs = attrs
        if len(self.spans) < MAX_SPANS:
            self.spans.append(span)
        else:
            self.dropped += 1

    def export_jsonl(self, path) -> int:
        return write_jsonl(path, (s.to_dict() for s in self.spans))


class AuditLog:
    """A bounded deque of :class:`AuditRecord` tuples."""

    enabled = True

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self.records: deque[AuditRecord] = deque(maxlen=AUDIT_CAPACITY)
        self._seq = 0

    def __len__(self) -> int:
        return len(self.records)

    def append(self, type: str, kind: str, key: Any, data: Row) -> None:
        self._seq = seq = self._seq + 1
        clock = self.clock
        self.records.append(tuple.__new__(AuditRecord, (
            seq, clock._now_us if clock is not None else 0.0,
            type, kind, key, data)))

    def on_admit(self, e) -> None:
        self.append("admit", e.kind, e.key,
                    _LIFECYCLE((e.level, e.nbytes, e.reason or "insert")))

    def on_evict(self, e) -> None:
        self.append("evict", e.kind, e.key,
                    _LIFECYCLE((e.level, e.nbytes, e.reason or "unspecified")))

    def on_flush(self, e) -> None:
        self.append("flush", e.kind, None, _FLUSH((e.lba, e.nbytes, e.entries)))

    def on_l2_victim(self, e) -> None:
        self.append("l2-victim", e.kind, e.key, _STAGE((e.stage,)))

    @property
    def dropped(self) -> int:
        return max(0, self._seq - AUDIT_CAPACITY)

    def records_for(self, kind: str, key: Any) -> list[AuditRecord]:
        if isinstance(key, list):
            key = tuple(key)
        return [r for r in self.records if r.kind == kind and r.key == key]

    def export_jsonl(self, path) -> int:
        return write_jsonl(path, (r.to_dict() for r in self.records))
