"""Terminal-renderable charts for figure reproduction.

The paper's figures are line charts with error bands; for a library that
runs headless, an honest ASCII rendering keeps the shape of every
reproduced figure visible in ``repro run``'s output without any plotting
dependency.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

#: Glyph cycle for multiple series on one chart.
_GLYPHS = "ox+*#@%&"


def line_chart(
    series: Dict[str, Sequence[float]],
    x_labels: Optional[Sequence[object]] = None,
    title: str = "",
    height: int = 12,
    y_label: str = "",
    y_min: Optional[float] = None,
    y_max: Optional[float] = None,
) -> str:
    """Render one or more numeric series as an ASCII chart.

    All series must share the same x positions. NaNs are skipped.
    """
    if not series:
        raise ValueError("line_chart needs at least one series")
    lengths = {len(v) for v in series.values()}
    if len(lengths) != 1:
        raise ValueError(f"series lengths differ: {lengths}")
    n = lengths.pop()
    if n == 0:
        raise ValueError("series are empty")

    values = [v for vs in series.values() for v in vs if v == v]
    if not values:
        raise ValueError("all values are NaN")
    lo = min(values) if y_min is None else y_min
    hi = max(values) if y_max is None else y_max
    if hi <= lo:
        hi = lo + max(abs(lo), 1.0) * 0.1

    # Column layout: one column per x position, padded for readability.
    col_w = max(3, (80 // max(n, 1)))
    width = col_w * n
    grid = [[" "] * width for _ in range(height)]

    def row_of(v: float) -> int:
        frac = (v - lo) / (hi - lo)
        frac = min(max(frac, 0.0), 1.0)
        return height - 1 - int(round(frac * (height - 1)))

    for si, (name, vs) in enumerate(series.items()):
        glyph = _GLYPHS[si % len(_GLYPHS)]
        for i, v in enumerate(vs):
            if v != v:  # NaN
                continue
            col = i * col_w + col_w // 2
            grid[row_of(v)][col] = glyph

    lines = []
    if title:
        lines.append(title)
    axis_w = 10
    for r in range(height):
        frac = 1.0 - r / (height - 1) if height > 1 else 1.0
        yv = lo + frac * (hi - lo)
        label = f"{yv:9.3g} " if r % 2 == 0 else " " * axis_w
        lines.append(label + "|" + "".join(grid[r]))
    lines.append(" " * axis_w + "+" + "-" * width)
    if x_labels is not None:
        if len(x_labels) != n:
            raise ValueError("x_labels length mismatch")
        xl = [""] * width
        row = " " * (axis_w + 1)
        for i, lab in enumerate(x_labels):
            s = str(lab)[: col_w - 1]
            start = i * col_w
            row += s.ljust(col_w)
        lines.append(row[: axis_w + 1 + width])
    legend = "   ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]}={name}" for i, name in enumerate(series)
    )
    lines.append(" " * axis_w + " " + legend + (f"   [y: {y_label}]" if y_label else ""))
    return "\n".join(lines)


def band_chart(
    means: Sequence[float],
    stds: Sequence[float],
    x_labels: Optional[Sequence[object]] = None,
    title: str = "",
    height: int = 12,
    y_label: str = "",
) -> str:
    """Mean line with +/- sigma band — the format of Figs. 5 and 6."""
    if len(means) != len(stds):
        raise ValueError("means and stds differ in length")
    hi_series = [m + s for m, s in zip(means, stds)]
    lo_series = [m - s for m, s in zip(means, stds)]
    return line_chart(
        {"mean": list(means), "+sigma": hi_series, "-sigma": lo_series},
        x_labels=x_labels,
        title=title,
        height=height,
        y_label=y_label,
    )
