"""Paper-style table rendering.

The experiment drivers print their results in the same row/column layout as
the paper's Table 1 so that a reader can compare side by side.  Tables are
rendered as aligned plain text; :func:`format_duration` renders the
retention scenario's read times.
"""

from __future__ import annotations

__all__ = ["Table", "format_table", "format_duration"]

_SECONDS = (("d", 86400.0), ("h", 3600.0), ("min", 60.0), ("s", 1.0))


class Table:
    """A small column-aligned table builder.

    Example
    -------
    >>> t = Table(["method", "NWC=0.1", "NWC=0.5"])
    >>> t.add_row(["SWIM", "98.49 ± 0.08", "98.57 ± 0.08"])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, headers, title=None):
        self.headers = [str(h) for h in headers]
        self.title = title
        self.rows = []

    def add_row(self, cells):
        """Append one row; cells are stringified."""
        row = [str(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(self.headers)}"
            )
        self.rows.append(row)

    def add_separator(self):
        """Append a horizontal separator row."""
        self.rows.append(None)

    def render(self):
        """Render as aligned plain text."""
        return format_table(self.headers, self.rows, title=self.title)


def _column_widths(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        if row is None:
            continue
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    return widths


def format_table(headers, rows, title=None):
    """Format headers + rows as an aligned text table.

    ``rows`` may contain ``None`` entries which render as separators.
    """
    widths = _column_widths(headers, rows)
    sep = "-+-".join("-" * w for w in widths)

    def fmt_row(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(headers))
    lines.append(sep)
    for row in rows:
        lines.append(sep if row is None else fmt_row(row))
    return "\n".join(lines)


def format_duration(seconds):
    """Human-readable duration, two leading units (e.g. ``6d 14h``)."""
    if seconds < 1.0:
        return f"{1000 * seconds:.1f} ms"
    parts = []
    rest = float(seconds)
    for name, unit in _SECONDS:
        count = int(rest // unit)
        if count > 0 or (name == "s" and not parts):
            parts.append(f"{count}{name}")
            rest -= count * unit
        if len(parts) == 2:
            break
    return " ".join(parts)
