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
"""

from __future__ import annotations

from collections import deque
from typing import Any, Iterable, NamedTuple

from repro.obs._jsonl import read_jsonl, write_jsonl

__all__ = [
    "AuditRecord",
    "AuditLog",
    "NullAudit",
    "NULL_AUDIT",
    "load_audit_jsonl",
    "explain_subject",
    "format_explanation",
]

#: Record types emitted at decision sites (not via the event bridge).
DECISION_TYPES = (
    "list.select",
    "list.l1-victim",
    "list.free-space",
    "rb.victim",
    "gc.victim",
)


class AuditRecord(NamedTuple):
    """One audited decision (or mirrored life-cycle event): a fixed-shape
    tuple on the serving path, a dict (:meth:`to_dict`) for its readers."""

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
    data: dict

    def to_dict(self) -> dict:
        out = self._asdict()
        if isinstance(self.key, tuple):
            out["key"] = list(self.key)
        return out


class AuditLog:
    """Ring-buffered structured decision log.

    ``capacity`` bounds memory: past it the oldest records are dropped
    (``dropped`` counts them) — an audit trail is recent history, not an
    archive.  Bind a clock with :meth:`bind_clock` so records carry
    virtual-clock timestamps; without one they are stamped 0.0.
    """

    enabled = True

    def __init__(self, capacity: int = 200_000, clock=None) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.clock = clock
        self.records: deque[AuditRecord] = deque(maxlen=capacity)
        self._seq = 0
        self._unsubscribes: list = []

    def __len__(self) -> int:
        return len(self.records)

    def bind_clock(self, clock) -> None:
        """Late-bind the virtual clock (managers own their clock)."""
        if self.clock is None:
            self.clock = clock

    # -- recording -----------------------------------------------------------

    def record(self, type: str, kind: str, key: Any, **data) -> None:
        """Append one decision record."""
        self._seq = seq = self._seq + 1
        clock = self.clock
        # tuple.__new__: AuditRecord(...) minus its generated __new__ frame
        self.records.append(tuple.__new__(AuditRecord, (
            seq, clock._now_us if clock is not None else 0.0,
            type, kind, key, data)))

    @property
    def dropped(self) -> int:
        """Records that fell off the ring (each took a sequence number)."""
        return max(0, self._seq - self.capacity)

    # The event mirror, one body per hook: subscribed by observe_events,
    # or called by Telemetry's fused observer (CacheEventMetrics).

    def on_admit(self, e) -> None:
        self.record("admit", e.kind, e.key, level=e.level, nbytes=e.nbytes,
                    reason=e.reason or "insert")

    def on_evict(self, e) -> None:
        self.record("evict", e.kind, e.key, level=e.level, nbytes=e.nbytes,
                    reason=e.reason or "unspecified")

    def on_flush(self, e) -> None:
        # A flush writes a block, not a subject: the key is always None.
        self.record("flush", e.kind, None, lba=e.lba, nbytes=e.nbytes,
                    entries=e.entries)

    def on_l2_victim(self, e) -> None:
        self.record("l2-victim", e.kind, e.key, stage=e.stage)

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
        return [r for r in self.records if r.kind == kind and r.key == key]

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

    def close(self) -> None:
        pass

    def records_for(self, kind: str, key: Any) -> list:
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


def load_audit_jsonl(path, return_torn: bool = False):
    """Load an ``audit.jsonl`` file, validating the record schema.

    A torn final line (a live run cut mid-write) is skipped, not fatal;
    pass ``return_torn=True`` to receive ``(records, torn_tail)``.
    """
    out: list[dict] = []
    records, torn = read_jsonl(path)
    for lineno, rec in records:
        missing = _RECORD_FIELDS - rec.keys()
        if missing:
            raise ValueError(
                f"{path}:{lineno}: audit record missing fields "
                f"{sorted(missing)}"
            )
        out.append(rec)
    return (out, torn) if return_torn else out


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
        rec = r.to_dict() if isinstance(r, AuditRecord) else r
        if rec["kind"] != kind or _normalise_key(rec["key"]) != want:
            continue
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
