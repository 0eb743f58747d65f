"""ASCII table formatting for the CLI reports."""

from __future__ import annotations

from typing import Sequence

from repro.common.errors import ValidationError


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
    float_fmt: str = "{:.4g}",
) -> str:
    """Render a fixed-width table (floats via ``float_fmt``)."""
    if not headers:
        raise ValidationError("table needs headers")

    def render(cell: object) -> str:
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows = [[render(c) for c in row] for row in rows]
    for i, row in enumerate(str_rows):
        if len(row) != len(headers):
            raise ValidationError(
                f"row {i} has {len(row)} cells, expected {len(headers)}"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)

