"""Query parsing: text in, :class:`~repro.engine.query.Query` out.

A minimal front-end matching what the paper's query preprocessor (Fig. 2)
does before the cache manager sees a query: tokenise, normalise case,
drop unknown words, deduplicate.
"""

from __future__ import annotations

import itertools

from repro.engine.lexicon import Lexicon
from repro.engine.query import Query

__all__ = ["QueryParser"]

#: Terms kept per query; later terms are dropped.
MAX_TERMS = 16


class QueryParser:
    """Turns query strings into term-id queries against a lexicon."""

    def __init__(self, lexicon: Lexicon) -> None:
        self.lexicon = lexicon
        self._next_id = itertools.count()

    def parse(self, text: str, query_id: int | None = None) -> Query:
        """Parse ``text``; raises ValueError if no known term survives."""
        terms: list[int] = []
        seen: set[int] = set()
        for token in text.lower().split():
            token = token.strip(".,;:!?\"'()[]")
            if not token:
                continue
            try:
                term_id = self.lexicon.lookup(token)
            except KeyError:
                continue  # out-of-vocabulary tokens are dropped
            if term_id not in seen:
                seen.add(term_id)
                terms.append(term_id)
            if len(terms) >= MAX_TERMS:
                break
        if not terms:
            raise ValueError(f"no known terms in query {text!r}")
        if query_id is None:
            query_id = next(self._next_id)
        return Query(query_id=query_id, terms=tuple(terms), text=text)
