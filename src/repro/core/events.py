"""Cache life-cycle event hooks — the observability seam of the core.

The layered caches (:mod:`repro.core.result_cache`,
:mod:`repro.core.list_cache`) and the replacement policies announce what
they do through a :class:`CacheEvents` bus instead of having consumers
reach into their internals.  Four hooks cover the life cycle:

* ``on_admit`` — an entry entered a tier (L1, L2, or the static
  partition), or an SSD copy was re-validated in place (``reason ==
  "revalidate"``, the Section VI.C write-avoidance path);
* ``on_evict`` — an entry left a tier (capacity pressure, TTL expiry,
  TEV discard, invalidation);
* ``on_flush`` — a physical SSD cache-file write (an assembled result
  block, a cost-based list placement, or a baseline byte-granular write);
* ``on_l2_victim`` — a replacement victim was selected on the SSD side,
  tagged with the Fig. 11/13 search stage that produced it.

:class:`repro.core.stats.StatsRecorder` subscribes the query-replay
counters; :class:`EventCounter` is a ready-made subscriber for cluster
shards and ad-hoc observability.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "AdmitEvent",
    "EvictEvent",
    "FlushEvent",
    "L2VictimEvent",
    "CacheEvents",
    "EventCounter",
]


@dataclass(slots=True)
class AdmitEvent:
    """An entry entered a cache tier (or was re-validated on SSD).

    Event objects are created on the serving hot path, so they are plain
    slots dataclasses; subscribers must treat them as immutable.
    """

    #: "result" or "list"
    kind: str
    #: query key tuple (results) or term id (lists)
    key: Any
    #: "l1", "l2", or "static"
    level: str
    nbytes: int = 0
    #: "revalidate" marks a Section VI.C avoided rewrite; None otherwise
    reason: str | None = None


@dataclass(slots=True)
class EvictEvent:
    """An entry left a cache tier."""

    kind: str
    key: Any
    #: tier the entry left ("l1" or "l2")
    level: str
    nbytes: int = 0
    #: "capacity", "tev", "expired", "invalidate", ...
    reason: str | None = None


@dataclass(slots=True)
class FlushEvent:
    """One physical write into the SSD cache file."""

    kind: str
    lba: int
    nbytes: int
    #: result entries in an RB, blocks in a list placement, 1 otherwise
    entries: int = 1


@dataclass(slots=True)
class L2VictimEvent:
    """A replacement victim was chosen on the SSD side."""

    kind: str
    #: rb_id for result blocks, term_id for lists
    key: Any
    #: "rb-iren", "replaceable", "size-match", "assemble", "fallback", "lru"
    stage: str


def _dispatch(hooks: list, event) -> None:
    """Deliver ``event`` to every hook even if one raises.

    Dispatch semantics: a failing subscriber must not prevent later
    subscribers from receiving the event — every hook runs to completion,
    then the *first* exception is re-raised so a broken observer still
    fails loudly (in tests and benchmarks) instead of silently skewing
    what it measures.  The emitters below handle the unobserved bus
    (free) and the single subscriber (isolation is moot: the first
    exception is simply the exception) themselves.
    """
    first_exc: Exception | None = None
    # Iterating the live list is safe: subscribing from inside a hook is
    # not a supported pattern, and try/except is free on the no-raise
    # path — so no defensive tuple copy per event.
    for cb in hooks:
        try:
            cb(event)
        except Exception as exc:  # noqa: BLE001 - isolation is the contract
            if first_exc is None:
                first_exc = exc
    if first_exc is not None:
        raise first_exc


class CacheEvents:
    """Synchronous fan-out of the four cache hooks.

    Subscribers must not mutate cache state; they observe.  A raising
    subscriber never starves the ones registered after it (see
    :func:`_dispatch`): all hooks are notified first, then the first
    exception propagates.
    """

    def __init__(self) -> None:
        self._on_admit: list[Callable[[AdmitEvent], None]] = []
        self._on_evict: list[Callable[[EvictEvent], None]] = []
        self._on_flush: list[Callable[[FlushEvent], None]] = []
        self._on_l2_victim: list[Callable[[L2VictimEvent], None]] = []

    def subscribe(
        self,
        *,
        on_admit: Callable[[AdmitEvent], None] | None = None,
        on_evict: Callable[[EvictEvent], None] | None = None,
        on_flush: Callable[[FlushEvent], None] | None = None,
        on_l2_victim: Callable[[L2VictimEvent], None] | None = None,
    ) -> Callable[[], None]:
        """Attach any subset of hooks; returns an unsubscribe callable."""
        attached: list[tuple[list, Callable]] = []
        for hooks, cb in (
            (self._on_admit, on_admit),
            (self._on_evict, on_evict),
            (self._on_flush, on_flush),
            (self._on_l2_victim, on_l2_victim),
        ):
            if cb is not None:
                hooks.append(cb)
                attached.append((hooks, cb))

        def unsubscribe() -> None:
            for hooks, cb in attached:
                if cb in hooks:
                    hooks.remove(cb)

        return unsubscribe

    # -- emission (called by the cache layers) ---------------------------

    # One subscriber is the common case (the stats recorder), so each
    # emitter delivers to it in its own frame; _dispatch owns the
    # several-subscriber isolation contract.

    def admit(self, event: AdmitEvent) -> None:
        hooks = self._on_admit
        if len(hooks) == 1:
            hooks[0](event)
        elif hooks:
            _dispatch(hooks, event)

    def evict(self, event: EvictEvent) -> None:
        hooks = self._on_evict
        if len(hooks) == 1:
            hooks[0](event)
        elif hooks:
            _dispatch(hooks, event)

    def flush(self, event: FlushEvent) -> None:
        hooks = self._on_flush
        if len(hooks) == 1:
            hooks[0](event)
        elif hooks:
            _dispatch(hooks, event)

    def l2_victim(self, event: L2VictimEvent) -> None:
        hooks = self._on_l2_victim
        if len(hooks) == 1:
            hooks[0](event)
        elif hooks:
            _dispatch(hooks, event)


class EventCounter:
    """Counts events by ``(hook, kind)`` — e.g. ``("flush", "result")``.

    A drop-in observer for cluster shards and benchmarks that want cache
    activity without touching cache internals.  Pass ``events=None`` for
    a detached counter that only aggregates others via :meth:`merge`
    (how a broker sums its shards).
    """

    def __init__(self, events: CacheEvents | None = None) -> None:
        self.counts: dict[tuple[str, str], int] = {}
        self._unsubscribe: Callable[[], None] | None = None
        if events is not None:
            self._unsubscribe = events.subscribe(
                on_admit=lambda e: self._bump("admit", e.kind),
                on_evict=lambda e: self._bump("evict", e.kind),
                on_flush=lambda e: self._bump("flush", e.kind),
                on_l2_victim=lambda e: self._bump("l2_victim", e.kind),
            )

    def _bump(self, hook: str, kind: str) -> None:
        key = (hook, kind)
        self.counts[key] = self.counts.get(key, 0) + 1

    def get(self, hook: str, kind: str) -> int:
        return self.counts.get((hook, kind), 0)

    def merge(self, other: "EventCounter") -> "EventCounter":
        """Sum another counter into this one, key-wise.

        Every ``(hook, kind)`` key the other counter saw is preserved —
        including combinations this counter never observed itself — so
        broker-level aggregation equals the sum of shard-level counts.
        Returns self for chaining.
        """
        for key, n in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + n
        return self

    def close(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
