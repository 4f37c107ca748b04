"""Plain-text table rendering for experiment results.

Every experiment's ``render()`` produces the paper's table or figure as
aligned text so `python -m repro experiment <id>` output can be compared
side by side with the paper.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

__all__ = ["render_table", "format_number", "ascii_series"]


def format_number(value, precision: int = 3) -> str:
    """Format a cell: floats to ``precision``, small fractions in e-notation."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != 0 and abs(value) < 10 ** (-precision):
            return f"{value:.2e}"
        return f"{value:.{precision}f}"
    return str(value)


def render_table(
    title: str,
    headers: Sequence[str],
    rows: Iterable[Sequence],
    precision: int = 3,
) -> str:
    """Render an aligned text table with a title rule."""
    formatted: List[List[str]] = [
        [format_number(cell, precision) for cell in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in formatted:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in formatted:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def ascii_series(
    values: Sequence[float],
    height: int = 12,
    width: int = 72,
    label: str = "",
) -> str:
    """Down-sample a series into a crude ASCII plot (for figure experiments)."""
    if not len(values):
        return f"{label}: (empty)"
    step = max(1, len(values) // width)
    sampled = [
        max(values[i : i + step]) for i in range(0, len(values), step)
    ][:width]
    low = min(sampled)
    high = max(sampled)
    span = (high - low) or 1.0
    rows = []
    for level in range(height, -1, -1):
        threshold = low + span * level / height
        row = "".join("#" if v >= threshold else " " for v in sampled)
        rows.append(row)
    header = f"{label}  [min={low:.3g}, max={high:.3g}]"
    return "\n".join([header] + rows)
