"""An LRU list with a working region and a replace-first region.

CBLRU (Figs. 11-13) splits the recency list: the *working region* holds
the most recently used entries; the trailing *replace-first region* of
window size W is where victims are searched first.

The list is an intrusive doubly-linked **slot arena**: preallocated
parallel arrays hold each entry's prev/next slot index, key and value,
with slot 0 as the sentinel (``_next[0]`` = LRU head, ``_prev[0]`` = MRU
tail) and a free-slot stack for reuse.  A touch is four list-index
writes instead of an ``OrderedDict.move_to_end`` dispatch, and no node
objects are allocated or collected on the hot path.  The property suite
in ``tests/test_core_lru_model.py`` pins every operation to an
``OrderedDict`` reference model.
"""

from __future__ import annotations

from typing import Generic, Hashable, Iterator, TypeVar

from repro._hot import HOT

__all__ = ["LruList"]

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

#: Sentinel slot index: its next is the LRU head, its prev the MRU tail.
_SENTINEL = 0


class LruList(Generic[K, V]):
    """Ordered key->value map; last = most recently used."""

    def __init__(self, replace_window: int = 5) -> None:
        if replace_window < 1:
            raise ValueError("replace_window must be >= 1")
        self.replace_window = replace_window
        # Parallel slot arrays; index 0 is the sentinel of the circular list.
        self._prev: list[int] = [_SENTINEL]
        self._next: list[int] = [_SENTINEL]
        self._keys: list[K | None] = [None]
        self._vals: list[V | None] = [None]
        self._slot: dict[K, int] = {}
        self._free: list[int] = []

    def __len__(self) -> int:
        return len(self._slot)

    def __contains__(self, key: K) -> bool:
        return key in self._slot

    def get(self, key: K) -> V | None:
        """Look up without touching recency."""
        slot = self._slot.get(key)
        return None if slot is None else self._vals[slot]

    def touch(self, key: K) -> V:
        """Mark ``key`` most recently used and return its value."""
        slot = self._slot[key]
        prev, nxt = self._prev, self._next
        p, n = prev[slot], nxt[slot]
        nxt[p] = n
        prev[n] = p
        tail = prev[_SENTINEL]
        nxt[tail] = slot
        prev[slot] = tail
        nxt[slot] = _SENTINEL
        prev[_SENTINEL] = slot
        HOT.lru_node_moves += 1
        return self._vals[slot]

    def insert(self, key: K, value: V) -> None:
        """Insert (or replace) as most recently used."""
        prev, nxt = self._prev, self._next
        slot = self._slot.get(key)
        if slot is None:
            if self._free:
                slot = self._free.pop()
                self._keys[slot] = key
                self._vals[slot] = value
            else:
                slot = len(self._keys)
                self._keys.append(key)
                self._vals.append(value)
                prev.append(_SENTINEL)
                nxt.append(_SENTINEL)
            self._slot[key] = slot
        else:
            self._vals[slot] = value
            p, n = prev[slot], nxt[slot]
            nxt[p] = n
            prev[n] = p
        tail = prev[_SENTINEL]
        nxt[tail] = slot
        prev[slot] = tail
        nxt[slot] = _SENTINEL
        prev[_SENTINEL] = slot
        HOT.lru_node_moves += 1

    def pop(self, key: K) -> V:
        slot = self._slot.pop(key)
        prev, nxt = self._prev, self._next
        p, n = prev[slot], nxt[slot]
        nxt[p] = n
        prev[n] = p
        value = self._vals[slot]
        self._keys[slot] = None
        self._vals[slot] = None
        self._free.append(slot)
        HOT.lru_node_moves += 1
        return value

    def pop_lru(self) -> tuple[K, V]:
        """Remove and return the least recently used item."""
        slot = self._next[_SENTINEL]
        if slot == _SENTINEL:
            raise KeyError("pop_lru on empty LruList")
        key = self._keys[slot]
        value = self._vals[slot]
        del self._slot[key]
        n = self._next[slot]
        self._next[_SENTINEL] = n
        self._prev[n] = _SENTINEL
        self._keys[slot] = None
        self._vals[slot] = None
        self._free.append(slot)
        HOT.lru_node_moves += 1
        return key, value

    def peek_lru(self) -> tuple[K, V]:
        slot = self._next[_SENTINEL]
        if slot == _SENTINEL:
            raise KeyError("peek_lru on empty LruList")
        return self._keys[slot], self._vals[slot]

    def replace_first_region(self) -> list[tuple[K, V]]:
        """The W least-recently-used items, LRU first (Fig. 11's RFR)."""
        out: list[tuple[K, V]] = []
        nxt, keys, vals = self._next, self._keys, self._vals
        slot = nxt[_SENTINEL]
        room = self.replace_window
        while slot != _SENTINEL and room > 0:
            out.append((keys[slot], vals[slot]))
            slot = nxt[slot]
            room -= 1
        return out

    def items_lru_order(self) -> Iterator[tuple[K, V]]:
        """All items, least recently used first (the Fig. 13 fallback scan)."""
        for key in self.keys():
            # Looked up live, not from the snapshot: a key removed while
            # the caller iterates raises KeyError, as the dict-backed
            # implementation always did.
            yield key, self._vals[self._slot[key]]

    def keys(self) -> list[K]:
        out: list[K] = []
        slot = self._next[_SENTINEL]
        while slot != _SENTINEL:
            out.append(self._keys[slot])
            slot = self._next[slot]
        return out

    def clear(self) -> None:
        self._prev = [_SENTINEL]
        self._next = [_SENTINEL]
        self._keys = [None]
        self._vals = [None]
        self._slot.clear()
        self._free.clear()
