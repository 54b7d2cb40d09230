"""Plain-text table formatting for benchmark output.

The benches print paper-style tables to stdout; this keeps their
formatting consistent and the bench code free of string fiddling.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table"]

#: How a float cell is rendered.
FLOAT_FMT = "{:.2f}"


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render rows as an aligned monospace table."""
    if not headers:
        raise ValueError("headers must be non-empty")

    def render(cell: object) -> str:
        if isinstance(cell, float):
            return FLOAT_FMT.format(cell)
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ValueError(f"row {i} has {len(row)} cells, expected {len(headers)}")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows else len(headers[i])
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].rjust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)
