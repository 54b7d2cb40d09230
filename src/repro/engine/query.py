"""Query representation."""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Query"]


@dataclass(frozen=True)
class Query:
    """A user query: an ordered tuple of term ids.

    ``key`` (the canonical form used for result-cache lookup) treats
    queries as bags of terms, matching how result caches key on the
    normalised query string.
    """

    query_id: int
    terms: tuple[int, ...]
    text: str = field(default="", compare=False)
    #: canonical cache key: sorted unique term ids.  Derived from
    #: ``terms`` once, at construction (every cache layer reads it several
    #: times per query), and kept out of ``==`` / ``hash`` / ``repr``:
    #: a query's identity is its ``query_id`` and ``terms``.
    key: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a query must contain at least one term")
        # Stored straight into the instance dict: the dataclass is frozen,
        # and a subclass may still shadow ``key`` with a property.
        self.__dict__["key"] = tuple(sorted(set(self.terms)))

    def __len__(self) -> int:
        return len(self.terms)
