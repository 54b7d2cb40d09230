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

The bus is for one observer (:meth:`CacheEvents.observe`): the
telemetry's :class:`~repro.obs.cache_metrics.CacheEventMetrics`, an
:class:`~repro.obs.audit.AuditLog`, or any object with the four
``on_*`` hooks.  The caches count their own replacement statistics
(:class:`~repro.core.stats.CacheStats`) at the sites that emit, and
build an event only while :attr:`CacheEvents.observed` is true, so an
unobserved run pays one attribute test per site.
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
]


@dataclass(slots=True)
class AdmitEvent:
    """An entry entered a cache tier (or was re-validated on SSD).

    Event objects are created on the serving hot path, so they are plain
    slots dataclasses; observers must treat them as immutable.
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


def _unobserved(event) -> None:
    """Every emitter of an unobserved bus: a no-op (the emit sites test
    :attr:`CacheEvents.observed` first, so they build no event for it)."""


class CacheEvents:
    """The four cache hooks, delivered to at most one observer.

    The cache layers emit through ``admit(event)``, ``evict(event)``,
    ``flush(event)`` and ``l2_victim(event)``, each call guarded by
    :attr:`observed`.  :meth:`observe` binds each emitter to the
    observer's ``on_admit`` / ``on_evict`` / ``on_flush`` /
    ``on_l2_victim`` itself, so an event costs the observer's own frame
    and nothing more.  The observer must not mutate cache state, and its
    exception propagates out of the emit site.
    """

    admit: Callable[[AdmitEvent], None]
    evict: Callable[[EvictEvent], None]
    flush: Callable[[FlushEvent], None]
    l2_victim: Callable[[L2VictimEvent], None]
    #: the object in the slot, or None
    observer: Any
    #: True while an observer is attached: the emit sites build an
    #: event only then.
    observed: bool

    def __init__(self) -> None:
        self.observe(None)

    def observe(self, observer) -> None:
        """Attach ``observer`` (it has all four ``on_*`` hooks), or detach
        with None.  The slot holds one: attaching a second raises."""
        if observer is not None and self.observed:
            raise RuntimeError("the bus already has an observer; "
                               "detach it with observe(None) first")
        self.observer = observer
        self.observed = observer is not None
        if observer is None:
            self.admit = self.evict = self.flush = self.l2_victim = _unobserved
        else:
            self.admit = observer.on_admit
            self.evict = observer.on_evict
            self.flush = observer.on_flush
            self.l2_victim = observer.on_l2_victim
