"""``repro trace <file>``: render a trace into an ASCII report.

Works off either trace artifact (native JSONL event log or exported
Chrome JSON, see :func:`repro.obs.export.load_trace`) and answers the
questions the end-of-run counter line cannot:

- **per-phase time** — wall time by span category with call counts;
- **self time by span name** — calls, inclusive time and self time (the
  time not covered by child spans on the span's own lane) per name;
- **point latency** — p50/p95/p99 over the per-point measurement spans;
- **cache/journal hit timelines** — the order in which lookups hit or
  missed, so "all the hits came first, then we measured everything
  fresh" is visible at a glance;
- **worker utilization Gantt** — one ASCII lane per (pid, tid) showing
  when each worker was busy, plus its busy fraction.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from .export import load_trace

#: Width of the ASCII timelines (characters per lane).
GANTT_WIDTH = 48

#: Span categories counted as "busy" in the worker Gantt. "attempt" and
#: "point" nest, so per-lane intervals are unioned before accounting.
BUSY_CATS = ("point", "attempt")


def _union(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping/nested intervals so busy time is not counted
    twice (an attempt span always contains its point span)."""
    merged: List[Tuple[float, float]] = []
    for a, b in sorted(intervals):
        if merged and a <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _fmt_s(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _percentiles(durs: Sequence[float]) -> Tuple[float, float, float]:
    arr = np.asarray(list(durs), dtype=np.float64)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return float(p50), float(p95), float(p99)


def _phase_table(spans: List[Dict[str, Any]]) -> List[str]:
    by_cat: Dict[str, List[float]] = {}
    for s in spans:
        by_cat.setdefault(s["cat"], []).append(s["dur"])
    if not by_cat:
        return ["  (no spans)"]
    width = max(len(c) for c in by_cat)
    lines = []
    for cat, durs in sorted(
        by_cat.items(), key=lambda kv: -sum(kv[1])
    ):
        total = sum(durs)
        lines.append(
            f"  {cat.ljust(width)}  {_fmt_s(total):>9}  "
            f"n={len(durs):<5d} mean={_fmt_s(total / len(durs))}"
        )
    return lines


def self_times(spans: List[Dict[str, Any]]) -> Dict[str, Tuple[int, float, float]]:
    """``name -> (calls, total, self)`` seconds over ``spans``. A span's
    self time is its duration minus the part of it that its child spans
    cover: those on the same (pid, tid) lane that start inside it, and
    not before it. Each child's time is taken from its innermost parent
    only, so nothing is subtracted twice."""
    lanes: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for s in spans:
        lanes.setdefault((s["pid"], s["tid"]), []).append(s)
    rows: Dict[str, List[Any]] = {}
    for lane in lanes.values():
        # A parent sorts before the children it contains.
        lane.sort(key=lambda s: (s["t0"], -s["dur"]))
        open_spans: List[Tuple[float, List[Any]]] = []  # (end, row)
        for s in lane:
            t0, end = s["t0"], s["t0"] + s["dur"]
            while open_spans and open_spans[-1][0] <= t0:
                open_spans.pop()
            if open_spans:
                parent_end, parent = open_spans[-1]
                parent[2] -= min(end, parent_end) - t0
            row = rows.setdefault(s["name"], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s["dur"]
            row[2] += s["dur"]
            open_spans.append((end, row))
    return {name: (row[0], row[1], row[2]) for name, row in rows.items()}


def _self_time_table(spans: List[Dict[str, Any]]) -> List[str]:
    table = sorted(self_times(spans).items(), key=lambda kv: -kv[1][2])
    width = max(len("name"), *(len(name) for name, _ in table))
    lines = [f"  {'name'.ljust(width)}  {'calls':>7}  {'total':>9}  {'self':>9}"]
    for name, (calls, total, self_s) in table:
        lines.append(
            f"  {name.ljust(width)}  {calls:>7d}  {_fmt_s(total):>9}  "
            f"{_fmt_s(self_s):>9}"
        )
    return lines


def _hit_timeline(
    spans: List[Dict[str, Any]], name: str
) -> Tuple[str, int, int]:
    """Chronological hit/miss string for cache/journal lookup spans."""
    lookups = sorted(
        (s for s in spans if s["name"] == name and "hit" in s["args"]),
        key=lambda s: s["t0"],
    )
    marks = "".join("H" if s["args"]["hit"] else "." for s in lookups)
    hits = marks.count("H")
    if len(marks) > GANTT_WIDTH:
        # Downsample evenly so the line stays terminal-width.
        idx = np.linspace(0, len(marks) - 1, GANTT_WIDTH).astype(int)
        marks = "".join(marks[i] for i in idx)
    return marks, hits, len(lookups) - hits


def _gantt(spans: List[Dict[str, Any]], t_min: float, t_max: float) -> List[str]:
    lanes: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for s in spans:
        if s["cat"] in BUSY_CATS:
            lanes.setdefault((s["pid"], s["tid"]), []).append(
                (s["t0"], s["t0"] + s["dur"])
            )
    if not lanes or t_max <= t_min:
        return ["  (no worker activity spans)"]
    total = t_max - t_min
    # Raw thread idents are unreadable; number the lanes per pid.
    tid_label: Dict[Tuple[int, int], str] = {}
    for pid, tid in sorted(lanes):
        n = sum(1 for (p, _t) in tid_label if p == pid)
        tid_label[(pid, tid)] = f"pid {pid}/t{n}"
    width = max(len(v) for v in tid_label.values())
    lines = []
    for (pid, tid), intervals in sorted(lanes.items()):
        merged = _union(intervals)
        cells = []
        for i in range(GANTT_WIDTH):
            lo = t_min + total * i / GANTT_WIDTH
            hi = t_min + total * (i + 1) / GANTT_WIDTH
            busy = any(a < hi and b > lo for a, b in merged)
            cells.append("#" if busy else ".")
        busy_s = sum(b - a for a, b in merged)
        lines.append(
            f"  {tid_label[(pid, tid)].ljust(width)} |{''.join(cells)}| "
            f"{100.0 * busy_s / total:3.0f}% busy"
        )
    return lines


def summarize_trace(path: str | Path) -> str:
    """Render the full ASCII report for one trace file."""
    spans, counters, meta = load_trace(path)
    lines = [f"trace summary: {path}"]
    if not spans:
        lines.append("  (trace contains no spans)")
        return "\n".join(lines)

    t_min = min(s["t0"] for s in spans)
    t_max = max(s["t0"] + s["dur"] for s in spans)
    pids = {s["pid"] for s in spans}
    tids = {(s["pid"], s["tid"]) for s in spans}
    lines.append(
        f"  wall {_fmt_s(t_max - t_min)}, {len(spans)} spans, "
        f"{len(pids)} process(es), {len(tids)} thread lane(s)"
    )

    lines.append("\nper-phase time (by span category):")
    lines.extend(_phase_table(spans))

    lines.append("\nself time by span name (child spans on the same lane "
                 "excluded):")
    lines.extend(_self_time_table(spans))

    point_durs = [s["dur"] for s in spans if s["cat"] == "point"]
    if point_durs:
        p50, p95, p99 = _percentiles(point_durs)
        lines.append(
            f"\npoint latency (n={len(point_durs)}): "
            f"p50={_fmt_s(p50)} p95={_fmt_s(p95)} p99={_fmt_s(p99)}"
        )

    for label, span_name in (("cache", "cache.get"), ("journal", "journal.get")):
        marks, hits, misses = _hit_timeline(spans, span_name)
        if marks:
            lines.append(
                f"\n{label} lookups ({hits} hit / {misses} miss, "
                "chronological):"
            )
            lines.append(f"  [{marks}]")

    lines.append("\nworker utilization (pid/tid lanes):")
    lines.extend(_gantt(spans, t_min, t_max))

    if counters:
        lines.append("\ncounters (latest snapshot per source):")
        latest: Dict[str, Dict[str, Any]] = {}
        for c in sorted(counters, key=lambda c: c["t0"]):
            latest.setdefault(c["name"], {}).update(c["values"])
        for name, values in sorted(latest.items()):
            interesting = {
                k: v for k, v in values.items()
                if v and k not in ("t_start_s", "t_end_s")
            }
            body = ", ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
            lines.append(f"  {name}: {body or '(all zero)'}")
    return "\n".join(lines)
