"""Regenerate experiment records and check them against the committed ones.

Runs every experiment that ``repro list`` prints (or the ones named) in
this process, at seed 0 and without the point cache or journal. Each
record is compared key for key, floats exactly, with the committed
``results/<experiment_id>.json`` (``results/<mode>/`` outside smoke
mode), ignoring ``telemetry``; then it must hold its paper shape, the
entry of ``SHAPES`` in ``tests/experiments/test_paper_shapes.py``.
``--write`` stores the records instead of comparing them. ``--resume``
skips the experiments a killed run journaled in the temp directory.
Prints each wall time and the total; exits 1 listing every failure, 2
on a usage error or a leftover journal::

    PYTHONPATH=src python scripts/check_records.py             # all, smoke
    PYTHONPATH=src python scripts/check_records.py fig5 fig6
    PYTHONPATH=src python scripts/check_records.py --mode paper --write
"""
from __future__ import annotations

import argparse
import json
import linecache
import os
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, List, Optional, Tuple

REPO = Path(__file__).resolve().parents[1]
for _path in (REPO, REPO / "src"):  # the shape table, then repro itself
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from repro.analysis import ExperimentRecord  # noqa: E402
from repro.cli import _finish_trace, _start_trace  # noqa: E402
from repro.core.journal import append_jsonl, iter_jsonl  # noqa: E402
from repro.experiments import EXPERIMENTS  # noqa: E402
from repro.obs.tracer import span as trace_span  # noqa: E402
from tests.experiments.test_paper_shapes import SHAPES  # noqa: E402

RESULTS = REPO / "results"
JOURNAL_DIR = Path(tempfile.gettempdir())


def first_difference(got: Any, want: Any, path: str = "") -> Optional[str]:
    """Dotted path of the first place ``got`` and ``want`` differ, in
    sorted-key order, or ``None`` when they are equal."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            where = f"{path}.{key}" if path else key
            if key not in got or key not in want:
                return where
            diff = first_difference(got[key], want[key], where)
            if diff is not None:
                return diff
        return None
    if isinstance(got, list) and isinstance(want, list):
        if len(got) != len(want):
            return f"{path} (length {len(got)} != {len(want)})"
        for i, (g, w) in enumerate(zip(got, want)):
            diff = first_difference(g, w, f"{path}[{i}]")
            if diff is not None:
                return diff
        return None
    if type(got) is not type(want) or got != want:
        return f"{path} (regenerated {got!r}, committed {want!r})"
    return None


def shape_failure(exc: BaseException) -> str:
    """The statement a shape check failed on, with the scalars it read."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    line = linecache.getline(tb.tb_frame.f_code.co_filename,
                             tb.tb_lineno).strip()
    if not isinstance(exc, AssertionError):
        line = f"{type(exc).__name__}: {exc} in {line!r}"
    elif exc.args:
        line += f" ({exc.args[0]})"
    scalars = ", ".join(
        f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v!r}"
        for k, v in tb.tb_frame.f_locals.items()
        if isinstance(v, (int, float, str))
    )
    return f"shape: {line}" + (f" [{scalars}]" if scalars else "")


def check(name: str, mode: str, write: bool,
          records: Path) -> Tuple[List[str], List[str]]:
    """Regenerate experiment ``name``: the problems found, if any, and
    the record's notes."""
    _, run, _ = EXPERIMENTS[name]
    try:
        with trace_span("experiment", cat="experiment", experiment=name):
            record = run(mode, seed=0)
    except Exception as exc:
        traceback.print_exc()
        return [f"driver raised {type(exc).__name__}: {exc}"], []
    # Check the record as its JSON file holds it, like tier-1 does.
    got = json.loads(record.to_json())
    committed = records / f"{record.experiment_id}.json"
    problems = []
    if write:
        record.save(records)
    elif not committed.exists():
        problems.append(f"no committed record {committed}")
    else:
        want = json.loads(committed.read_text())
        want.pop("telemetry", None)
        diff = first_difference(got, want)
        if diff is not None:
            problems.append(f"record differs at {diff}")
    try:
        SHAPES[name](ExperimentRecord(**got))
    except Exception as exc:
        problems.append(shape_failure(exc))
    return problems, record.notes


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "experiments", nargs="*", metavar="EXP",
        help="experiments to regenerate (default: all of 'repro list')",
    )
    parser.add_argument(
        "--mode", choices=("smoke", "paper", "full"), default="smoke",
        help="grid size; records live in results/ for smoke, "
        "results/<mode>/ otherwise (default: smoke)",
    )
    parser.add_argument(
        "--write", action="store_true",
        help="store the regenerated records instead of comparing them",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="skip the experiments a killed run with the same --mode and "
        "--write already journaled",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span trace of the whole run: event log at "
        "FILE.jsonl, Chrome/Perfetto JSON exported to FILE at the end",
    )
    args = parser.parse_args(argv)
    unknown = [e for e in args.experiments if e not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiment(s) {unknown}; see 'repro list'")
    names = args.experiments or list(EXPERIMENTS)
    records = RESULTS if args.mode == "smoke" else RESULTS / args.mode

    journal = JOURNAL_DIR / (
        f"check_records-{args.mode}{'-write' if args.write else ''}.jsonl")
    if journal.exists() and journal.stat().st_size > 0 and not args.resume:
        print(f"journal {journal} already exists; pass --resume to continue "
              "that run, or delete the file to start over", file=sys.stderr)
        return 2
    done = {e["name"]: e for e in iter_jsonl(journal)} if args.resume else {}

    # Measure every point afresh, as `repro run --no-cache` does.
    os.environ.pop("REPRO_CACHE_DIR", None)
    os.environ.pop("REPRO_JOURNAL", None)
    trace_path = _start_trace(args)
    failed, total = [], 0.0
    for name in names:
        if name in done:
            problems, wall = done[name]["problems"], done[name]["wall_s"]
            status, notes = "journaled, ", []
        else:
            t0 = time.perf_counter()
            problems, notes = check(name, args.mode, args.write, records)
            wall = time.perf_counter() - t0
            append_jsonl(journal, {"name": name, "problems": problems,
                                   "wall_s": wall})
            status = ""
        total += wall
        line = f"{'FAIL' if problems else 'ok  '} {name} ({status}{wall:.1f} s)"
        if problems:
            failed.append(name)
            line += ": " + "; ".join(problems)
        print(line)
        for note in notes:
            print(f"     {note}")
        sys.stdout.flush()
    _finish_trace(trace_path)
    journal.unlink(missing_ok=True)
    print(f"total {total:.1f} s for {len(names)} experiment(s), "
          f"{args.mode} mode, {len(failed)} failed")
    if failed:
        print("FAILED: " + " ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
