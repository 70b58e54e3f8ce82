"""Fixed-width table rendering for experiment reports.

The experiment renderers that ``repro run`` prints go through this
module, so every figure's output has a uniform, diff-able format, the
one ``EXPERIMENTS.md`` quotes.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
    float_fmt: str = "{:.3g}",
) -> str:
    """Render rows as a fixed-width text table.

    Floats go through ``float_fmt``; everything else through ``str``.
    """
    def render(cell: object) -> str:
        if isinstance(cell, bool):
            return str(cell)
        if isinstance(cell, float):
            return float_fmt.format(cell)
        return str(cell)

    str_rows: List[List[str]] = [[render(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_kv(pairs: Iterable[tuple[str, object]], title: str = "") -> str:
    """Aligned key/value block for scalar results."""
    items = list(pairs)
    if not items:
        return title
    width = max(len(k) for k, _ in items)
    lines = [title] if title else []
    for k, v in items:
        if isinstance(v, float):
            v = f"{v:.4g}"
        lines.append(f"  {k.ljust(width)} : {v}")
    return "\n".join(lines)
