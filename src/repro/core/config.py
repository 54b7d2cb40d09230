"""Configuration of the two-level cache (Tables II/III + Section VI).

All the magic numbers the paper states are defaults here: 2 KB pages,
128 KB blocks (= SB in Formula 1), 20 KB result entries (K = 50 documents
of ~400 B), the replace-first window W = 5, and the 20 % / 80 % capacity
split between result and inverted-list caches.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from functools import cached_property

__all__ = ["Policy", "Scheme", "CacheConfig"]


class Policy(str, enum.Enum):
    """SSD-cache management policy (the Fig. 14b/17/19 comparands)."""

    LRU = "lru"
    CBLRU = "cblru"
    CBSLRU = "cbslru"


class Scheme(str, enum.Enum):
    """Two-level caching scheme (Section IV.A)."""

    INCLUSIVE = "inclusive"
    EXCLUSIVE = "exclusive"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class CacheConfig:
    """Capacities and policy parameters of one cache-manager instance."""

    # -- capacities (bytes) ------------------------------------------------
    mem_result_bytes: int = 4 * 1024 * 1024
    mem_list_bytes: int = 16 * 1024 * 1024
    ssd_result_bytes: int = 40 * 1024 * 1024
    ssd_list_bytes: int = 160 * 1024 * 1024

    # -- fixed-format parameters -------------------------------------------
    #: SB of Formula 1 — the flash block size the SSD cache is aligned to
    block_bytes: int = 128 * 1024
    #: one cached result entry (top-50 docs x ~400 B)
    result_entry_bytes: int = 20 * 1024
    top_k: int = 50

    # -- policy knobs ----------------------------------------------------------
    policy: Policy = Policy.CBSLRU
    scheme: Scheme = Scheme.HYBRID
    #: W — entries in the replace-first region of the SSD LRU lists
    replace_window: int = 5
    #: TEV — minimum efficiency value (accesses/block) to admit a list to SSD
    tev: float = 0.0
    #: fraction of each SSD region frozen as CBSLRU's static cache
    static_fraction: float = 0.5
    #: result entries accumulated in the write buffer before an RB flush
    write_buffer_entries: int = 0  # 0 = derive from block/entry size
    #: dynamic scenario (Section IV.B): cached data older than this is
    #: stale and re-read from the index store.  0 = static scenario.
    ttl_us: float = 0.0

    def __post_init__(self) -> None:
        # A name ("cbslru") is as good as the member; anything else fails
        # here, not as a silent default deep inside the caches.
        for field_name, kind in (("policy", Policy), ("scheme", Scheme)):
            value = getattr(self, field_name)
            if not isinstance(value, kind):
                try:
                    object.__setattr__(self, field_name, kind(value))
                except ValueError:
                    choices = ", ".join(member.value for member in kind)
                    raise ValueError(f"unknown {field_name} {value!r}; "
                                     f"choose from {choices}") from None
        for field_name in ("mem_result_bytes", "mem_list_bytes",
                           "ssd_result_bytes", "ssd_list_bytes"):
            if getattr(self, field_name) < 0:
                raise ValueError(f"{field_name} cannot be negative")
        if self.block_bytes <= 0:
            raise ValueError("block_bytes must be positive")
        if self.result_entry_bytes <= 0 or self.result_entry_bytes > self.block_bytes:
            raise ValueError("result_entry_bytes must be in (0, block_bytes]")
        if self.replace_window < 1:
            raise ValueError("replace_window must be >= 1")
        if not 0.0 <= self.static_fraction < 1.0:
            raise ValueError("static_fraction must be in [0, 1)")
        if self.tev < 0:
            raise ValueError("tev cannot be negative")
        if self.write_buffer_entries < 0:
            raise ValueError("write_buffer_entries cannot be negative")
        if self.ttl_us < 0:
            raise ValueError("ttl_us cannot be negative")

    # -- derived ------------------------------------------------------------
    # The config is frozen, so every derived value is a pure function of
    # immutable fields: computed on first use and kept in the instance
    # __dict__ (cached_property stores there directly, which a frozen
    # dataclass allows).  replace() builds a fresh instance, and ==, hash
    # and repr look at fields only, so the cache is invisible and can
    # never be stale.

    @cached_property
    def entries_per_rb(self) -> int:
        """Result entries per 128 KB result block (6 with the defaults)."""
        if self.write_buffer_entries:
            return self.write_buffer_entries
        return max(1, self.block_bytes // self.result_entry_bytes)

    @cached_property
    def ssd_result_blocks(self) -> int:
        return self.ssd_result_bytes // self.block_bytes

    @cached_property
    def ssd_list_blocks(self) -> int:
        return self.ssd_list_bytes // self.block_bytes

    @cached_property
    def ssd_cache_bytes(self) -> int:
        """Total SSD space the cache file needs."""
        return (self.ssd_result_blocks + self.ssd_list_blocks) * self.block_bytes

    @cached_property
    def uses_ssd(self) -> bool:
        """False for one-level (memory-only) configurations."""
        return self.ssd_cache_bytes > 0

    @cached_property
    def uses_static(self) -> bool:
        """True when CBSLRU's pinned static partition is provisioned."""
        return self.policy is Policy.CBSLRU and self.uses_ssd

    # -- convenience constructors -----------------------------------------------

    @classmethod
    def paper_split(
        cls,
        mem_bytes: int,
        ssd_bytes: int = 0,
        rc_fraction: float = 0.2,
        **overrides,
    ) -> "CacheConfig":
        """Split total capacities 20/80 between RC and IC (Section VII.A).

        The SSD side keeps the paper's proportions from Fig. 16: the SSD
        result cache is 10x the memory result cache, and the rest of the
        SSD budget goes to the inverted-list cache.  Section VII.D's write
        threshold is on by default (TEV = 0.5 accesses/block): one-hit
        tail lists are discarded instead of flushed — "which can reduce
        unnecessary writes to SSD".
        """
        if not 0.0 <= rc_fraction <= 1.0:
            raise ValueError("rc_fraction must be in [0, 1]")
        mem_rc = int(mem_bytes * rc_fraction)
        mem_lc = mem_bytes - mem_rc
        if ssd_bytes > 0:
            ssd_rc = min(10 * mem_rc, int(ssd_bytes * rc_fraction))
            ssd_lc = ssd_bytes - ssd_rc
        else:
            ssd_rc = ssd_lc = 0
        overrides.setdefault("tev", 0.5)
        return cls(
            mem_result_bytes=mem_rc,
            mem_list_bytes=mem_lc,
            ssd_result_bytes=ssd_rc,
            ssd_list_bytes=ssd_lc,
            **overrides,
        )

    def one_level(self) -> "CacheConfig":
        """The same configuration without the SSD tier (1LC baseline)."""
        return replace(self, ssd_result_bytes=0, ssd_list_bytes=0)
