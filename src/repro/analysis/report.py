"""ASCII rendering for the benchmark harness.

Every benchmark prints the rows/series of its paper table or figure.
These helpers keep that output consistent: fixed-width tables, and a
rough-and-ready ASCII scatter/line plot good enough to eyeball a CDF's
shape in a terminal log.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.errors import AnalysisError


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """A fixed-width text table.

    Raises:
        AnalysisError: when a row's width differs from the header's.
    """
    columns = len(headers)
    rendered_rows: List[List[str]] = []
    for row in rows:
        if len(row) != columns:
            raise AnalysisError(
                f"row has {len(row)} cells, expected {columns}")
        rendered_rows.append([_format_cell(cell) for cell in row])
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index])
                  for index, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rendered_rows:
        lines.append("  ".join(cell.rjust(widths[index])
                               for index, cell in enumerate(row)))
    return "\n".join(lines)


def _format_cell(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def ascii_plot(series: Sequence[Tuple[float, float]], width: int = 64,
               height: int = 16, title: str = "",
               x_label: str = "x", y_label: str = "y") -> str:
    """A crude ASCII scatter of one (x, y) series.

    Raises:
        AnalysisError: for an empty series.
    """
    if not series:
        raise AnalysisError("cannot plot an empty series")
    xs = [x for x, _ in series]
    ys = [y for _, y in series]
    x_low, x_high = min(xs), max(xs)
    y_low, y_high = min(ys), max(ys)
    x_span = x_high - x_low or 1.0
    y_span = y_high - y_low or 1.0
    grid = [[" "] * width for _ in range(height)]
    for x, y in series:
        column = int((x - x_low) / x_span * (width - 1))
        row = height - 1 - int((y - y_low) / y_span * (height - 1))
        grid[row][column] = "*"
    lines = []
    if title:
        lines.append(title)
    lines.append(f"{y_label} [{y_low:.3g} .. {y_high:.3g}]")
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    lines.append(f" {x_label} [{x_low:.3g} .. {x_high:.3g}]")
    return "\n".join(lines)


def render_cdf(points: Sequence[Tuple[float, float]], title: str = "CDF",
               x_label: str = "value") -> str:
    """ASCII rendering of a CDF point list."""
    return ascii_plot(points, title=title, x_label=x_label,
                      y_label="cumulative density")
