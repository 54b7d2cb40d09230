"""Cache-entry records — the values of the Fig. 6/7 mapping tables.

``CachedResult`` and ``CachedList`` are deliberately mutable: access
frequency, utilization and placement state change on every touch, and the
mappings hold the same object identity across LRU moves.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["EntryState", "CachedResult", "CachedList", "ResultBlock"]


class EntryState(enum.Enum):
    """Placement state of SSD-resident data (Fig. 8/9).

    NORMAL — valid and read-only; REPLACEABLE — read back to memory or
    invalidated, preferred overwrite target; (FREE space is tracked by the
    region allocators, not per entry).
    """

    NORMAL = "normal"
    REPLACEABLE = "replaceable"


@dataclass
class CachedResult:
    """A result entry as tracked by memory and SSD result mappings.

    Memory mapping (Fig. 6a): key -> (R, freq).  SSD mapping (Fig. 7a):
    key -> (ptr, freq, RB#); ``rb_id``/``slot`` locate it inside a result
    block, ``lba`` is the device pointer.
    """

    query_key: tuple[int, ...]
    nbytes: int
    freq: int = 1
    # SSD placement (None while memory-only)
    rb_id: int | None = None
    slot: int | None = None
    lba: int | None = None
    state: EntryState = EntryState.NORMAL
    #: static CBSLRU entries are never evicted or overwritten
    static: bool = False
    #: simulated time the underlying *data* was produced (TTL anchor);
    #: copies across levels inherit it — age is a data property
    created_us: float = 0.0

    @property
    def on_ssd(self) -> bool:
        return self.rb_id is not None or self.lba is not None

    def touch(self) -> None:
        self.freq += 1

    def expired(self, now_us: float, ttl_us: float) -> bool:
        """Dynamic scenario (Section IV.B): data older than TTL is stale."""
        return ttl_us > 0 and now_us - self.created_us > ttl_us


@dataclass
class CachedList:
    """An inverted-list cache entry (Fig. 6b / 7c).

    ``cached_bytes`` is the length of the frequency-sorted prefix held at
    this level; ``total_bytes`` the full on-disk list (the "size" field);
    ``pu`` the utilization rate used by Formula 1.
    """

    term_id: int
    cached_bytes: int
    total_bytes: int
    pu: float
    freq: int = 1
    #: running mean of per-query traversal need (drives Formula 1's PU:
    #: the fraction of the memory-resident prefix a typical query uses)
    mean_needed_bytes: float = 0.0
    # SSD placement: the cache-file blocks holding the prefix, in order
    # (cost-based policies) ...
    blocks: list[int] = field(default_factory=list)
    # ... or a byte-granular extent start (LRU baseline placement)
    lba_byte: int | None = None
    state: EntryState = EntryState.NORMAL
    static: bool = False
    #: simulated time this list data was read from the index store
    created_us: float = 0.0

    def __post_init__(self) -> None:
        if self.cached_bytes < 0 or self.total_bytes <= 0:
            raise ValueError("sizes must be positive")
        if not 0.0 < self.pu <= 1.0:
            raise ValueError(f"pu must be in (0, 1]: {self.pu}")

    @property
    def on_ssd(self) -> bool:
        return bool(self.blocks) or self.lba_byte is not None

    @property
    def formula1_pu(self) -> float:
        """PU for Formula 1: typical per-query use of the cached prefix."""
        if self.cached_bytes <= 0 or self.mean_needed_bytes <= 0:
            return self.pu
        return min(1.0, self.mean_needed_bytes / self.cached_bytes)

    def touch(self) -> None:
        self.freq += 1

    def covers(self, needed_bytes: int) -> bool:
        """Whether the cached prefix satisfies a traversal of ``needed_bytes``."""
        return self.cached_bytes >= needed_bytes

    def expired(self, now_us: float, ttl_us: float) -> bool:
        """Dynamic scenario (Section IV.B): data older than TTL is stale."""
        return ttl_us > 0 and now_us - self.created_us > ttl_us


@dataclass
class ResultBlock:
    """A 128 KB logic result block (RB) on SSD (Fig. 7b).

    ``flags`` is the validity bitmap — one bit per slot, 1 = the slot
    holds a live (NORMAL) result entry.  IREN (invalid result entry
    number) of Fig. 11 is the number of zero bits among occupied slots
    plus freed slots; since replaced/read-back entries clear their bit,
    ``slots - popcount(flags)`` is exactly IREN.
    """

    rb_id: int
    lba: int
    num_slots: int
    flags: int = 0
    #: query keys by slot (None = never used or invalidated)
    entries: list[tuple[int, ...] | None] = field(default_factory=list)
    static: bool = False

    def __post_init__(self) -> None:
        if self.num_slots <= 0:
            raise ValueError("num_slots must be positive")
        if not self.entries:
            self.entries = [None] * self.num_slots
        if len(self.entries) != self.num_slots:
            raise ValueError("entries length must equal num_slots")

    @property
    def valid_count(self) -> int:
        return bin(self.flags).count("1")

    @property
    def iren(self) -> int:
        """Invalid result entry number — Fig. 11's victim-ranking key."""
        return self.num_slots - self.valid_count

    # Hot (an L2 result hit clears, its L1 victim may set): the range is
    # tested inline and _check_slot called only to raise.

    def set_valid(self, slot: int, key: tuple[int, ...]) -> None:
        if not 0 <= slot < self.num_slots:
            self._check_slot(slot)
        self.flags |= 1 << slot
        self.entries[slot] = key

    def clear_valid(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            self._check_slot(slot)
        self.flags &= ~(1 << slot)

    def is_valid(self, slot: int) -> bool:
        self._check_slot(slot)
        return bool(self.flags >> slot & 1)

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.num_slots:
            raise IndexError(f"slot {slot} out of range [0, {self.num_slots})")
