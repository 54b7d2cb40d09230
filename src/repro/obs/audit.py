"""Decision-level audit trail: *why* the caches did what they did.

PR 2's telemetry records *what happened* (latencies, counters, spans);
the audit log records the **inputs and chosen branch of every policy
decision** the paper's algorithms make:

* ``list.select`` — selection management (Section VI.A): the Formula-1
  placement size (``SC = ceil(SI*PU/SB)``), the Formula-2 efficiency
  value ``EV = Freq/SC``, and the EV-vs-TEV admission verdict;
* ``list.l1-victim`` — the Fig. 12 walk over CBLRU's replace-first
  region with each candidate's EV and the minimum-EV choice;
* ``rb.victim`` — the Fig. 11 walk picking the maximum-IREN result
  block;
* ``list.free-space`` — the Fig. 13 staged search context (blocks
  needed vs free) preceding the per-stage ``l2-victim`` records;
* ``gc.victim`` — a flash GC victim choice: policy name, candidate
  valid-page counts, the chosen block (Fig. 19a's erase story);
* ``admit`` / ``evict`` / ``flush`` / ``l2-victim`` — the cache
  life-cycle, mirrored off the :class:`~repro.core.events.CacheEvents`
  bus so the trail is a complete timeline.

Records live in a bounded ring (old decisions fall off, recent history
is always queryable), export as JSONL (``audit.jsonl`` in a telemetry
dir) and feed the ``repro explain`` CLI: *why is term X (not) on SSD at
t=T?*

The disabled path is :data:`NULL_AUDIT`, whose ``record`` is a constant
no-op; hot paths gate on ``audit.enabled`` exactly like the tracer, so
a run without an audit log takes one attribute check per decision.

A record's ``data`` is a :class:`~repro._row.Row`, values under keys
shared by every record of its shape: the event mirror (over 99 % of a
result-hit run's records) builds it from the event's fields, the
decision sites build theirs and call :meth:`AuditLog.append`, and
:meth:`AuditLog.record` converts its keywords.

The log keeps its records as machine values, not one tuple each: a
record's ``t_us`` and its type and kind (codes into the log's string
table) are one fixed-width packed record in a ``bytearray`` ring, its
key and data row go to two lists.  A record's ``seq`` is its position:
the oldest retained record is number ``dropped + 1``.
:attr:`AuditLog.records` is a read-only sequence over the ring that
builds an :class:`AuditRecord` per item read.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain
from struct import Struct
from typing import Any, Iterable, NamedTuple

from repro._row import SHAPES, Row, shape
from repro.obs._jsonl import read_jsonl, write_jsonl

__all__ = [
    "AuditRecord",
    "AuditLog",
    "NullAudit",
    "NULL_AUDIT",
    "AuditTrail",
    "load_audit_jsonl",
    "explain_subject",
    "format_explanation",
]


class AuditRecord(NamedTuple):
    """One audited decision (or mirrored life-cycle event), as
    :attr:`AuditLog.records` builds it for a reader: a fixed-shape
    tuple, ``data`` a read-only row, and a dict (:meth:`to_dict`)."""

    #: monotonically increasing sequence number (gap-free per log)
    seq: int
    #: virtual-clock timestamp of the decision
    t_us: float
    #: record type ("list.select", "gc.victim", "admit", "evict", ...)
    type: str
    #: subject kind: "list", "result", "rb", "gc"
    kind: str
    #: subject key: term id, query-key tuple, rb id, or block number
    key: Any
    #: decision inputs and the chosen branch
    data: Row

    def to_dict(self) -> dict:
        out = self._asdict()
        if isinstance(self.key, tuple):
            out["key"] = list(self.key)
        out["data"] = self.data.to_dict()
        return out


#: Records the ring holds (drop-oldest, counted in ``dropped``).
AUDIT_CAPACITY = 200_000

# The event mirror's payload shapes (repro._row).
_LIFECYCLE = shape(("level", "nbytes", "reason"))
_FLUSH = shape(("lba", "nbytes", "entries"))
_STAGE = shape(("stage",))

# The event mirror's record types, the first codes of every log's
# string table (types and kinds share it).
_ADMIT, _EVICT, _FLUSHED, _L2_VICTIM = range(4)
_MIRRORED = ("admit", "evict", "flush", "l2-victim")

#: A record's fixed-width values, packed: ``t_us``, type code, kind code.
_RECORD = Struct("=dHH")
_pack = _RECORD.pack


class _Records(Sequence):
    """A log's retained records, oldest first, read-only: each item read
    is an :class:`AuditRecord` built from the ring."""

    __slots__ = ("_log",)

    def __init__(self, log: "AuditLog") -> None:
        self._log = log

    def __len__(self) -> int:
        return len(self._log._data)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        i = range(len(self))[i]  # a negative index counts from the end
        log = self._log
        return log._built(list(log._codes), i, log._slot(i))

    def __iter__(self):
        log = self._log
        names = list(log._codes)
        for i, j in enumerate(log._slots()):
            yield log._built(names, i, j)

    def __repr__(self) -> str:
        return f"<{len(self)} audit records>"


class AuditLog:
    """Ring-buffered structured decision log, kept as packed records.

    :data:`AUDIT_CAPACITY` bounds memory: past it the oldest records are
    overwritten (``dropped`` counts them) — an audit trail is recent
    history, not an archive.  Bind a clock with :meth:`bind_clock` so
    records carry virtual-clock timestamps; without one they are
    stamped 0.0.
    """

    enabled = True

    def __init__(self, clock=None) -> None:
        self.clock = clock
        self._capacity = AUDIT_CAPACITY
        #: records appended so far (the newest record's seq)
        self._seq = 0
        #: the string table: type or kind -> its code in the packed records
        self._codes: dict[str, int] = dict(zip(_MIRRORED, range(4)))
        #: the ring: one :data:`_RECORD` per record, and its key and row
        self._records = bytearray()
        self._keys: list = []
        self._data: list = []
        self._unsubscribes: list = []

    def __len__(self) -> int:
        return len(self._data)

    @property
    def records(self) -> Sequence:
        """The retained records, a read-only sequence of
        :class:`AuditRecord`, oldest first."""
        return _Records(self)

    def bind_clock(self, clock) -> None:
        """Late-bind the virtual clock (managers own their clock)."""
        if self.clock is None:
            self.clock = clock

    # -- the ring ------------------------------------------------------------

    def _slot(self, i: int) -> int:
        """The ring slot of the ``i``-th oldest retained record."""
        return (self.dropped + i) % self._capacity

    def _slots(self):
        """Ring slots of the retained records, oldest first."""
        head = self._slot(0)
        return chain(range(head, len(self._data)), range(head))

    def _built(self, names: list, i: int, j: int) -> AuditRecord:
        """The ``i``-th oldest retained record, kept at slot ``j``."""
        t_us, type_code, kind_code = _RECORD.unpack_from(
            self._records, j * _RECORD.size)
        return tuple.__new__(AuditRecord, (
            self.dropped + 1 + i, t_us, names[type_code], names[kind_code],
            self._keys[j], self._data[j]))

    # -- recording -----------------------------------------------------------

    def record(self, type: str, kind: str, key: Any, **data) -> None:
        """Append one decision record, its inputs given as keywords
        (converted to a row here; a decision site on the serving path
        builds its row and calls :meth:`append`)."""
        keys = tuple(data)
        self.append(type, kind, key,
                    (SHAPES.get(keys) or shape(keys))(data.values()))

    # Each writer below stores one record in its own frame, appending
    # to the ring; once the ring is full, :meth:`_overwrite` puts it in
    # the oldest record's place.

    def append(self, type: str, kind: str, key: Any, data: Row) -> None:
        """Append one decision record whose inputs are already a row."""
        self._seq = seq = self._seq + 1
        clock = self.clock
        t_us = clock._now_us if clock is not None else 0.0
        codes = self._codes
        type = codes.setdefault(type, len(codes))
        kind = codes.setdefault(kind, len(codes))
        if seq > self._capacity:
            return self._overwrite(seq, t_us, type, kind, key, data)
        self._records += _pack(t_us, type, kind)
        self._keys.append(key)
        self._data.append(data)

    def _overwrite(self, seq: int, t_us: float, type: int, kind: int,
                   key: Any, data: Row) -> None:
        j = (seq - 1) % self._capacity
        _RECORD.pack_into(self._records, j * _RECORD.size, t_us, type, kind)
        self._keys[j] = key
        self._data[j] = data

    @property
    def dropped(self) -> int:
        """Records that fell off the ring (each took a sequence number)."""
        return self._seq - len(self._data)

    # The event mirror, one body per hook and one frame per event (the
    # record is stored here, its row built from the event's fields):
    # subscribed by observe_events, or called by Telemetry's fused
    # observer (CacheEventMetrics).

    def on_admit(self, e) -> None:
        self._seq = seq = self._seq + 1
        clock = self.clock
        t_us = clock._now_us if clock is not None else 0.0
        try:
            kind = self._codes[e.kind]
        except KeyError:
            kind = self._codes[e.kind] = len(self._codes)
        data = _LIFECYCLE((e.level, e.nbytes, e.reason or "insert"))
        if seq > self._capacity:
            return self._overwrite(seq, t_us, _ADMIT, kind, e.key, data)
        self._records += _pack(t_us, _ADMIT, kind)
        self._keys.append(e.key)
        self._data.append(data)

    def on_evict(self, e) -> None:
        self._seq = seq = self._seq + 1
        clock = self.clock
        t_us = clock._now_us if clock is not None else 0.0
        try:
            kind = self._codes[e.kind]
        except KeyError:
            kind = self._codes[e.kind] = len(self._codes)
        data = _LIFECYCLE((e.level, e.nbytes, e.reason or "unspecified"))
        if seq > self._capacity:
            return self._overwrite(seq, t_us, _EVICT, kind, e.key, data)
        self._records += _pack(t_us, _EVICT, kind)
        self._keys.append(e.key)
        self._data.append(data)

    def on_flush(self, e) -> None:
        # A flush writes a block, not a subject: the key is always None.
        self._seq = seq = self._seq + 1
        clock = self.clock
        t_us = clock._now_us if clock is not None else 0.0
        try:
            kind = self._codes[e.kind]
        except KeyError:
            kind = self._codes[e.kind] = len(self._codes)
        data = _FLUSH((e.lba, e.nbytes, e.entries))
        if seq > self._capacity:
            return self._overwrite(seq, t_us, _FLUSHED, kind, None, data)
        self._records += _pack(t_us, _FLUSHED, kind)
        self._keys.append(None)
        self._data.append(data)

    def on_l2_victim(self, e) -> None:
        self._seq = seq = self._seq + 1
        clock = self.clock
        t_us = clock._now_us if clock is not None else 0.0
        try:
            kind = self._codes[e.kind]
        except KeyError:
            kind = self._codes[e.kind] = len(self._codes)
        data = _STAGE((e.stage,))
        if seq > self._capacity:
            return self._overwrite(seq, t_us, _L2_VICTIM, kind, e.key, data)
        self._records += _pack(t_us, _L2_VICTIM, kind)
        self._keys.append(e.key)
        self._data.append(data)

    def observe_events(self, events) -> None:
        """Mirror a :class:`~repro.core.events.CacheEvents` bus into the
        trail, so decision records sit in a complete admit/evict/flush
        timeline."""
        self._unsubscribes.append(events.subscribe(
            on_admit=self.on_admit, on_evict=self.on_evict,
            on_flush=self.on_flush, on_l2_victim=self.on_l2_victim))

    def close(self) -> None:
        """Detach every event-bus subscription."""
        for unsubscribe in self._unsubscribes:
            unsubscribe()
        self._unsubscribes.clear()

    # -- querying ------------------------------------------------------------

    def records_for(self, kind: str, key: Any) -> list[AuditRecord]:
        """All retained records about one subject, oldest first."""
        if isinstance(key, list):
            key = tuple(key)
        code = self._codes.get(kind)
        names = list(self._codes)
        records, size, keys = self._records, _RECORD.size, self._keys
        return [self._built(names, i, j)
                for i, j in enumerate(self._slots())
                if keys[j] == key
                and _RECORD.unpack_from(records, j * size)[2] == code]

    def records_between(self, start_us: float,
                        end_us: float) -> list[AuditRecord]:
        """The retained records stamped inside ``[start_us, end_us]``,
        oldest first (only those are built)."""
        names = list(self._codes)
        records, size = self._records, _RECORD.size
        return [self._built(names, i, j)
                for i, j in enumerate(self._slots())
                if start_us <= _RECORD.unpack_from(records, j * size)[0]
                <= end_us]

    # -- export --------------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write one JSON object per record; returns the record count."""
        return write_jsonl(path, (r.to_dict() for r in self.records))


class NullAudit:
    """The disabled audit log: every operation is a constant no-op."""

    enabled = False
    records: tuple = ()
    dropped = 0

    def __len__(self) -> int:
        return 0

    def bind_clock(self, clock) -> None:
        pass

    def record(self, type: str, kind: str, key: Any, **data) -> None:
        pass

    def append(self, type: str, kind: str, key: Any, data) -> None:
        pass

    def close(self) -> None:
        pass

    def records_for(self, kind: str, key: Any) -> list:
        return []

    def records_between(self, start_us: float, end_us: float) -> list:
        return []

    def export_jsonl(self, path) -> int:
        return 0


#: Shared do-nothing audit log; decision sites default to this so an
#: unaudited run costs one attribute access per decision.
NULL_AUDIT = NullAudit()


# ---------------------------------------------------------------------------
# Reading a trail back: the `repro explain` machinery
# ---------------------------------------------------------------------------

_RECORD_FIELDS = {"seq", "t_us", "type", "kind", "key", "data"}


@dataclass
class AuditTrail:
    """A parsed ``audit.jsonl``: record dicts in file order; ``torn_tail``
    counts the cut final record skipped (a run killed mid-write)."""

    path: str
    records: list[dict]
    torn_tail: int = 0


def load_audit_jsonl(path) -> AuditTrail:
    """Load an ``audit.jsonl`` file, validating the record schema."""
    records, torn = read_jsonl(path)
    for lineno, rec in records:
        missing = _RECORD_FIELDS - rec.keys()
        if missing:
            raise ValueError(
                f"{path}:{lineno}: audit record missing fields "
                f"{sorted(missing)}"
            )
    return AuditTrail(path, [rec for _, rec in records], torn)


def _normalise_key(key: Any) -> Any:
    return tuple(key) if isinstance(key, list) else key


def explain_subject(
    records: Iterable[dict | AuditRecord],
    kind: str,
    key: Any,
    at_us: float | None = None,
) -> dict:
    """Reconstruct one subject's decision history from a trail.

    Returns ``{"kind", "key", "events": [...], "on_ssd", "verdict"}``
    where ``events`` is the subject's chronological record list (up to
    ``at_us`` when given) and ``verdict`` is a one-line answer to *why is
    this (not) on SSD?* derived from the latest placement-affecting
    record.
    """
    want = _normalise_key(key)
    rows: list[dict] = []
    for r in records:
        # A live record is rendered only once it is known to be about
        # this subject.
        live = isinstance(r, AuditRecord)
        if (r.kind if live else r["kind"]) != kind:
            continue
        if _normalise_key(r.key if live else r["key"]) != want:
            continue
        rec = r.to_dict() if live else r
        if at_us is not None and rec["t_us"] > at_us:
            continue
        rows.append(rec)
    rows.sort(key=lambda r: r["seq"])

    on_ssd: bool | None = None
    verdict = "no records retained for this subject"
    for rec in rows:
        t, data = rec["type"], rec["data"]
        if t == "admit" and data.get("level") in ("l2", "static"):
            on_ssd = True
            if data.get("reason") == "revalidate":
                verdict = ("on SSD: the REPLACEABLE flash copy was "
                           "re-validated in place (Section VI.C, no rewrite)")
            else:
                verdict = f"on SSD: admitted to the {data['level']} partition"
        elif t == "evict" and data.get("level") == "l2":
            on_ssd = False
            verdict = f"not on SSD: evicted from L2 ({data.get('reason')})"
        elif t == "list.select":
            if data.get("admit"):
                verdict = (f"selected for SSD: EV={data['ev']:.3f} >= "
                           f"TEV={data['tev']:.3f} at SC={data['sc_blocks']} "
                           "blocks (Formula 1/2)")
            else:
                on_ssd = False
                verdict = (f"not on SSD: discarded by the TEV filter "
                           f"(EV={data['ev']:.3f} < TEV={data['tev']:.3f})")
        elif t == "l2-victim":
            on_ssd = False
            verdict = (f"not on SSD: chosen as a replacement victim in the "
                       f"{data.get('stage')!r} stage (Fig. 11/13)")
    if kind == "gc" and rows:
        chosen = [r for r in rows if r["type"] == "gc.victim"]
        if chosen:
            last = chosen[-1]["data"]
            verdict = (f"erased {len(chosen)} time(s) by GC, most recently "
                       f"by {last.get('policy')} ({last.get('origin')}) with "
                       f"{last.get('valid_pages')} valid pages to copy back")
    return {
        "kind": kind,
        "key": key,
        "events": rows,
        "on_ssd": on_ssd,
        "verdict": verdict,
    }


def _describe(rec: dict) -> str:
    t, data = rec["type"], rec["data"]
    if t == "list.select":
        branch = "admit" if data.get("admit") else "tev-discard"
        return (f"selection: SI={data.get('si_bytes')} B, "
                f"PU={data.get('pu'):.2f}, freq={data.get('freq')} -> "
                f"SC={data.get('sc_blocks')} blocks, EV={data.get('ev'):.3f} "
                f"vs TEV={data.get('tev'):.3f} -> {branch}")
    if t == "list.l1-victim":
        n = len(data.get("candidates", []))
        return (f"L1 victim walk ({data.get('branch')}): {n} replace-first "
                f"candidates, chose min-EV")
    if t == "rb.victim":
        n = len(data.get("candidates", []))
        return (f"RB victim walk ({data.get('branch')}): {n} candidates, "
                f"chose IREN={data.get('iren')}")
    if t == "list.free-space":
        return (f"free-space search: need {data.get('sc_needed')} blocks, "
                f"{data.get('free_blocks')} free (Fig. 13)")
    if t == "gc.victim":
        return (f"GC victim ({data.get('policy')}, {data.get('origin')}): "
                f"{data.get('candidates')} candidates, chose block with "
                f"{data.get('valid_pages')} valid pages")
    if t in ("admit", "evict"):
        return (f"{t} {data.get('level')} ({data.get('reason')}, "
                f"{data.get('nbytes')} B)")
    if t == "flush":
        return f"flush to SSD (lba={data.get('lba')}, {data.get('nbytes')} B)"
    if t == "l2-victim":
        return f"picked as L2 victim (stage={data.get('stage')})"
    return t


def format_explanation(explanation: dict) -> str:
    """Render :func:`explain_subject` output as a readable report."""
    kind, key = explanation["kind"], explanation["key"]
    lines = [f"audit trail for {kind} {key!r}:"]
    if not explanation["events"]:
        lines.append("  (no records retained)")
    for rec in explanation["events"]:
        lines.append(f"  t={rec['t_us']:>12.1f} us  [{rec['type']:<15s}] "
                     f"{_describe(rec)}")
    lines.append(f"verdict: {explanation['verdict']}")
    return "\n".join(lines)
