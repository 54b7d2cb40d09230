"""The one JSONL writer and the torn-tail-tolerant reader.

Every streamed telemetry file (``spans.jsonl``, ``timeline.jsonl``,
``blame.jsonl``, ``audit.jsonl``) is written by :class:`JsonlWriter`:
an optional header line, one complete record per line, optional
trailer lines (exemplars, a footer).  A stream is one whole file,
opened in the telemetry directory when the telemetry is built and
finalised there (:meth:`JsonlWriter.finish`); it is never cut, moved or
copied, and the observer's memory is bounded by its rings.

Lines are written whole, so the only malformed line a reader should
ever meet is the *last* one — a live run cut mid-record (crash, SIGKILL, disk full).
:func:`read_jsonl` therefore parses every line strictly except the
final one: a torn tail is skipped and *counted* (returned, never
silently swallowed), while a parse failure anywhere earlier still
raises — mid-file corruption is a real error, not an artifact of
being killed.
"""

from __future__ import annotations

import json
import os

__all__ = ["JsonlWriter", "write_jsonl", "read_jsonl"]


class JsonlWriter:
    """A JSONL file being written, one ``json.dumps`` line per record.

    ``header`` (a dict) becomes the first line.  ``written`` counts the
    records (not the header or trailer lines).
    """

    def __init__(self, path, header: dict | None = None) -> None:
        self.path = path
        self.written = 0
        self.closed = False
        self._fh = open(path, "w", encoding="utf-8")
        if header is not None:
            self.write_trailer(header)

    def write(self, rec: dict) -> None:
        """Append one counted record."""
        self._fh.write(json.dumps(rec) + "\n")
        self.written += 1

    def write_trailer(self, rec: dict) -> None:
        """Append a line that is not counted (headers, exemplars,
        footers: the file's frame, not its records)."""
        self._fh.write(json.dumps(rec) + "\n")

    def flush(self) -> None:
        """Hand what is written so far to the OS, so a reader in another
        process (``repro top DIR``) sees every whole line; a no-op once
        the file is closed."""
        if not self.closed:
            self._fh.flush()

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._fh.close()

    def finish(self, path) -> int:
        """Close the file, which is ``path``: a stream is finalised where
        it was opened, so any other ``path`` raises ``ValueError``.
        Returns the record count."""
        if os.path.abspath(path) != os.path.abspath(self.path):
            raise ValueError(f"{self.path} is streamed in place; it cannot "
                             f"be exported to {path}")
        self.close()
        return self.written


def write_jsonl(path, records, header: dict | None = None) -> int:
    """Write ``records`` (an iterable of dicts) to ``path`` in one go;
    returns the record count (the header is not counted)."""
    writer = JsonlWriter(path, header=header)
    try:
        for rec in records:
            writer.write(rec)
    finally:
        writer.close()
    return writer.written


def read_jsonl(path) -> tuple[list[tuple[int, dict]], int]:
    """Parse ``path`` into ``([(lineno, record), ...], torn_tail)``.

    ``torn_tail`` is 1 when the file's last non-blank line failed to
    parse (a record cut mid-write) and was skipped, else 0.  A parse
    failure on any earlier line raises :class:`ValueError` with the
    offending line number.
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    numbered = [(i + 1, line.strip()) for i, line in enumerate(lines)
                if line.strip()]
    records: list[tuple[int, dict]] = []
    torn = 0
    for pos, (lineno, text) in enumerate(numbered):
        try:
            records.append((lineno, json.loads(text)))
        except ValueError:
            if pos == len(numbered) - 1:
                torn = 1
            else:
                raise ValueError(
                    f"{path}:{lineno}: corrupt JSONL record (not the "
                    f"final line, so not a torn tail)") from None
    return records, torn
