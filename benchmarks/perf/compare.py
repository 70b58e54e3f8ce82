#!/usr/bin/env python3
"""Compare two sets of benchmark results, one row per workload x metric.

    python3 benchmarks/perf/compare.py PARENT CHANGE [--claim METRIC:WORKLOAD]
                                       [--save-baseline]

PARENT and CHANGE are ``result.json`` files written by ``run.py --out``,
or directories searched recursively for them; every untraced run of a
side is pooled. Each row gives both sides' median and quartiles and a
verdict judged against the metric's bound in ``BENCHMARK.json``:

- ``worse``      the change's median is worse by more than the bound;
- ``better``     it is better by more than the parent's own quartile
                 spread, and every run of the change beats every run of
                 the parent;
- ``unresolved`` either side's spread (quartile distance over median) is
                 wider than the bound, unless every run of one side beats
                 every run of the other;
- ``unchanged``  otherwise.

``--claim`` pairs the i-th run of each side in start order (run the two
commits alternately) and counts the pairs the change wins, ties counting
for neither: the claim holds when it wins at least nine tenths of the
pairs and the medians differ by more than the parent's quartile spread.
It also lists the per-layer self time of both sides' traced runs, to
show where a saving appears. ``--save-baseline`` stores both sets'
medians and quartiles with the machine fingerprint in reference.json.

Exit code 1 when a row is ``worse`` or a claim does not hold.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"


def load_side(path: Path) -> List[Dict[str, Any]]:
    files = sorted(path.rglob("result.json")) if path.is_dir() else [path]
    if not files:
        raise SystemExit(f"error: no result.json under {path}")
    return [json.loads(f.read_text()) for f in files]


def runs_by_workload(reports: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    out: Dict[str, List[Dict[str, Any]]] = {}
    for report in reports:
        for name, entry in report["workloads"].items():
            out.setdefault(name, []).extend(entry["runs"])
    for runs in out.values():
        runs.sort(key=lambda r: r["started_at"])
    return out


def traced_layers(reports: List[Dict[str, Any]], workload: str) -> Dict[str, float]:
    for report in reversed(reports):
        entry = report["workloads"].get(workload, {})
        if "traced" in entry:
            return entry["traced"]["layers"]
    return {}


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: List[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def gain(parent: float, change: float, better: str) -> float:
    """Relative improvement of ``change`` over ``parent`` (negative when
    worse)."""
    delta = (change - parent) / abs(parent) if parent else 0.0
    return -delta if better == "lower" else delta


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> str:
    p_med, c_med = quartiles(parent)[1], quartiles(change)[1]
    g = gain(p_med, c_med, better)
    beats = all(gain(p, c, better) > 0 for p in parent for c in change)
    loses = all(gain(p, c, better) < 0 for p in parent for c in change)
    if max(spread(parent), spread(change)) > bound and not (beats or loses):
        return "unresolved"
    if -g > bound:
        return "worse"
    if g > spread(parent) and beats:
        return "better"
    return "unchanged"


def judge_claim(parent: List[float], change: List[float], better: str) -> Tuple[bool, str]:
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if gain(p, c, better) > 0)
    g = gain(quartiles(parent)[1], quartiles(change)[1], better)
    held = bool(pairs) and wins >= 0.9 * len(pairs) and g > spread(parent)
    return held, (f"wins {wins}/{len(pairs)} pairs, median gain {100 * g:+.2f}% "
                  f"(parent spread {100 * spread(parent):.2f}%)")


def summary(runs: Dict[str, List[Dict[str, Any]]], metrics: Dict[str, Dict[str, Any]]
            ) -> Dict[str, Dict[str, Dict[str, Any]]]:
    out: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for name, rs in runs.items():
        out[name] = {}
        for metric, spec in metrics.items():
            q1, q2, q3 = quartiles([r["metrics"][metric] for r in rs])
            out[name][metric] = {"median": q2, "q1": q1, "q3": q3,
                                 "unit": spec["unit"], "runs": len(rs)}
    return out


def main(argv: List[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    p.add_argument("--save-baseline", action="store_true",
                   help="store both sets' medians and quartiles in reference.json")
    args = p.parse_args(argv)

    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    parent_reports, change_reports = load_side(args.parent), load_side(args.change)
    parent, change = runs_by_workload(parent_reports), runs_by_workload(change_reports)
    status = 0
    print(f"{'workload':14s} {'metric':18s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s}  verdict")
    for name in sorted(set(parent) & set(change)):
        for metric, spec in metrics.items():
            pv = [r["metrics"][metric] for r in parent[name]]
            cv = [r["metrics"][metric] for r in change[name]]
            v = verdict(pv, cv, spec["better"], spec["bound"])
            status |= v == "worse"
            pq, cq = quartiles(pv), quartiles(cv)
            print(f"{name:14s} {metric:18s} "
                  f"{pq[1]:11.5g} [{pq[0]:9.5g}, {pq[2]:9.5g}] "
                  f"{cq[1]:11.5g} [{cq[0]:9.5g}, {cq[2]:9.5g}]  {v}")
        same = {r["digest"] for r in parent[name]} == {r["digest"] for r in change[name]}
        print(f"{name:14s} outputs {'identical' if same else 'DIFFER'}; host slowdown "
              f"{quartiles([r['host_slowdown']['run'] for r in parent[name]])[1]:.3f} -> "
              f"{quartiles([r['host_slowdown']['run'] for r in change[name]])[1]:.3f}")

    for claim in args.claim:
        metric, _, name = claim.partition(":")
        if metric not in metrics or name not in parent or name not in change:
            raise SystemExit(f"error: unknown claim {claim!r}")
        held, detail = judge_claim([r["metrics"][metric] for r in parent[name]],
                                   [r["metrics"][metric] for r in change[name]],
                                   metrics[metric]["better"])
        status |= not held
        print(f"claim {claim}: {'HOLDS' if held else 'NOT MET'} — {detail}")
        before, after = traced_layers(parent_reports, name), traced_layers(change_reports, name)
        rows = sorted((k for k in before if k.endswith(".self_s") and k in after),
                      key=lambda k: -abs(after[k] - before[k]))
        for k in rows[:8]:
            print(f"  {k:32s} {before[k]:9.3f} s -> {after[k]:9.3f} s")

    if args.save_baseline:
        reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        reference["baseline"] = {
            "fingerprint": parent_reports[0]["fingerprint"],
            "source_digest": parent_reports[0]["source_digest"],
            "sets": [summary(parent, metrics), summary(change, metrics)],
        }
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
        print(f"baseline written to {REFERENCE}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main())
