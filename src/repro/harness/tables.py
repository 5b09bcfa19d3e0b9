"""ASCII rendering of experiment results in the paper's figure format."""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence], footer: Sequence = None) -> str:
    """Simple fixed-width table with a title rule."""
    rows = [tuple(str(c) for c in row) for row in rows]
    if footer is not None:
        footer = tuple(str(c) for c in footer)
    widths = [len(h) for h in headers]
    for row in rows + ([footer] if footer else []):
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt(row):
        return "  ".join(cell.rjust(widths[i]) if i else cell.ljust(widths[i])
                         for i, cell in enumerate(row))

    rule = "-" * (sum(widths) + 2 * (len(widths) - 1))
    lines = [title, rule, fmt(tuple(headers)), rule]
    lines.extend(fmt(row) for row in rows)
    if footer:
        lines.append(rule)
        lines.append(fmt(footer))
    lines.append(rule)
    return "\n".join(lines)


def percent(value: float) -> str:
    """Format a ratio as a signed percentage delta string."""
    return f"{(value - 1.0) * 100.0:+.1f}%"

