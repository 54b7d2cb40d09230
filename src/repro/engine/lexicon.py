"""Term dictionary.

Maps term ids to their statistics and synthetic surface forms.  Term id 0
is the most probable term, mirroring a rank-ordered vocabulary dump.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.corpus import CorpusStats
from repro.engine.postings import POSTING_BYTES

__all__ = ["TermInfo", "Lexicon"]


@dataclass(frozen=True)
class TermInfo:
    """Per-term metadata exposed to the processor and cache manager."""

    term_id: int
    text: str
    doc_freq: int
    coll_freq: int
    #: full frequency-sorted posting list size on disk, in bytes
    list_bytes: int
    #: mean fraction of the list traversed during processing (PU)
    utilization: float


class Lexicon:
    """Vocabulary view over :class:`~repro.engine.corpus.CorpusStats`.

    ``list_sizes`` overrides the default raw on-disk sizes (df x 8 B) —
    the compressed-index path passes varbyte-encoded sizes here.
    """

    def __init__(self, stats: CorpusStats, list_sizes=None) -> None:
        self._stats = stats
        if list_sizes is not None and len(list_sizes) != stats.num_terms:
            raise ValueError("list_sizes length must match vocabulary size")
        self._list_sizes = list_sizes
        # TermInfo is frozen and a pure function of the (immutable) corpus
        # statistics and list sizes this lexicon was built over, so one is
        # built per term id and handed out again on every later miss.
        self._terms: dict[int, TermInfo] = {}

    def __len__(self) -> int:
        return self._stats.num_terms

    def __contains__(self, term_id: int) -> bool:
        return 0 <= term_id < len(self)

    def term(self, term_id: int) -> TermInfo:
        info = self._terms.get(term_id)
        if info is not None:
            return info
        if term_id not in self:
            raise KeyError(f"term id {term_id} not in lexicon of size {len(self)}")
        info = self._terms[term_id] = TermInfo(
            term_id=term_id,
            text=self.spell(term_id),
            doc_freq=int(self._stats.doc_freqs[term_id]),
            coll_freq=int(self._stats.coll_freqs[term_id]),
            list_bytes=self.list_bytes(term_id),
            utilization=float(self._stats.utilization[term_id]),
        )
        return info

    @staticmethod
    def spell(term_id: int) -> str:
        """Deterministic synthetic surface form, e.g. ``term00042``."""
        return f"term{term_id:05d}"

    def lookup(self, text: str) -> int:
        """Inverse of :meth:`spell`; raises KeyError on unknown forms."""
        if not text.startswith("term"):
            raise KeyError(f"unknown term {text!r}")
        try:
            term_id = int(text[4:])
        except ValueError:
            raise KeyError(f"unknown term {text!r}") from None
        if term_id not in self:
            raise KeyError(f"unknown term {text!r}")
        return term_id

    def list_bytes(self, term_id: int) -> int:
        """On-disk posting-list size in bytes."""
        if term_id not in self:
            raise KeyError(f"term id {term_id} out of range")
        if self._list_sizes is not None:
            return int(self._list_sizes[term_id])
        return int(self._stats.doc_freqs[term_id]) * POSTING_BYTES

    def utilization(self, term_id: int) -> float:
        if term_id not in self:
            raise KeyError(f"term id {term_id} out of range")
        return float(self._stats.utilization[term_id])
