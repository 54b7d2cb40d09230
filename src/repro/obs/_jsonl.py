"""The one JSONL writer and the torn-tail-tolerant reader.

Every streamed telemetry file (``spans.jsonl``, ``timeline.jsonl``,
``blame.jsonl``, ``audit.jsonl``) is written by :class:`JsonlWriter`:
an optional header line, one complete record per line, optional
rotation to ``<path>.1`` with a continuation header, and one rule for
exporting a streamed file (:meth:`JsonlWriter.export_to`).
:func:`read_generations` reads a possibly-rotated file back in order.

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
import shutil

__all__ = ["JsonlWriter", "write_jsonl", "read_jsonl", "read_generations"]


class JsonlWriter:
    """A JSONL file being written, one ``json.dumps`` line per record.

    ``header`` (a dict) becomes the first line.  ``max_records`` bounds
    on-disk growth: once that many records sit in the file it is
    rotated to ``<path>.1`` (replacing any previous rotation) and the
    stream continues in a fresh file whose first line is the header
    plus ``continuation``/``rotation``, so at most two generations are
    ever on disk.  ``written`` counts records over all generations.
    """

    def __init__(self, path, header: dict | None = None,
                 max_records: int | None = None) -> None:
        self.path = path
        self.header = header
        self.max_records = max_records
        self.written = 0
        self.rotations = 0
        self.closed = False
        self._in_file = 0
        self._fh = open(path, "w", encoding="utf-8")
        if header is not None:
            self.write_trailer(header)

    def write(self, rec: dict) -> None:
        """Append one counted record; rotates when the file is full."""
        self._fh.write(json.dumps(rec) + "\n")
        self.written += 1
        self._in_file += 1
        if self.max_records is not None and self._in_file >= self.max_records:
            self._fh.close()
            os.replace(self.path, str(self.path) + ".1")
            self.rotations += 1
            self._in_file = 0
            self._fh = open(self.path, "w", encoding="utf-8")
            self.write_trailer(dict(self.header, continuation=True,
                                    rotation=self.rotations))

    def write_trailer(self, rec: dict) -> None:
        """Append a line that neither counts nor rotates (headers,
        exemplars, footers: the file's frame, not its records)."""
        self._fh.write(json.dumps(rec) + "\n")

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._fh.close()

    def export_to(self, path) -> None:
        """Finalise the stream.  Exporting to the stream's own path
        leaves the file in place; exporting elsewhere copies the
        streamed generation(s) there."""
        self.close()
        if os.path.abspath(str(path)) == os.path.abspath(str(self.path)):
            return
        for suffix in ([".1"] if self.rotations else []) + [""]:
            shutil.copyfile(str(self.path) + suffix, str(path) + suffix)


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


def read_generations(path) -> tuple[list[tuple[str, list]], int]:
    """Read a possibly-rotated file: ``<path>.1`` first when a rotation
    left one, then ``path``.  Returns ``([(part_path, records), ...],
    torn_tail)`` with ``records`` as :func:`read_jsonl` returns them and
    the torn tails summed over the parts."""
    rotated = str(path) + ".1"
    parts = []
    torn_total = 0
    for part in ([rotated] if os.path.exists(rotated) else []) + [path]:
        records, torn = read_jsonl(part)
        parts.append((part, records))
        torn_total += torn
    return parts, torn_total
