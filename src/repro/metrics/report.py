"""Plain-text tables and series for the experiment harness.

Every benchmark prints the rows/series the paper's tables and figures
report, side by side with the paper's published values where available.
These helpers keep the formatting uniform and machine-greppable.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple


def format_table(headers: Sequence[str], rows: Sequence[Sequence[Any]],
                 title: Optional[str] = None) -> str:
    """Fixed-width table with a rule under the header."""
    columns = len(headers)
    widths = [len(str(h)) for h in headers]
    rendered_rows: List[List[str]] = []
    for row in rows:
        if len(row) != columns:
            raise ValueError("row %r has %d cells, expected %d"
                             % (row, len(row), columns))
        cells = [_render(cell) for cell in row]
        rendered_rows.append(cells)
        for index, cell in enumerate(cells):
            widths[index] = max(widths[index], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header = "  ".join(str(h).ljust(widths[i])
                       for i, h in enumerate(headers))
    lines.append(header)
    lines.append("  ".join("-" * w for w in widths))
    for cells in rendered_rows:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(cells)))
    return "\n".join(lines)


def _render(cell: Any) -> str:
    if isinstance(cell, float):
        if cell != cell:  # NaN marks "not applicable"
            return "N/A"
        if abs(cell) >= 100:
            return "%.0f" % cell
        if abs(cell) >= 1:
            return "%.1f" % cell
        return "%.3f" % cell
    if cell is None:
        return "N/A"
    return str(cell)


def format_series(name: str, points: Sequence[Tuple[float, float]],
                  x_label: str = "t", y_label: str = "value",
                  max_points: int = 60) -> str:
    """A (downsampled) time series as two aligned columns.

    Timeline figures (7, 8, 10-19) are reported this way; ``max_points``
    keeps the output readable while preserving the shape.
    """
    if len(points) > max_points:
        stride = max(1, len(points) // max_points)
        points = list(points)[::stride]
    lines = ["%s  (%s -> %s)" % (name, x_label, y_label)]
    for x, y in points:
        lines.append("  %10.1f  %10.4f" % (x, y))
    return "\n".join(lines)


def sparkline(points: Sequence[Tuple[float, float]], width: int = 72) -> str:
    """A unicode sparkline of a series (quick visual shape check)."""
    if not points:
        return "(empty)"
    values = [y for _x, y in points]
    if len(values) > width:
        stride = max(1, len(values) // width)
        values = values[::stride]
    low, high = min(values), max(values)
    span = (high - low) or 1.0
    glyphs = " .:-=+*#%@"
    return "".join(glyphs[min(9, int((v - low) / span * 9.999))]
                   for v in values)
