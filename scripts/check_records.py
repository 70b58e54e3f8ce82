"""Records check: regenerated experiment records == committed records.

For each experiment named on the command line, regenerate its
smoke-mode, seed-0 record with ``repro run --no-cache`` into a temporary
directory and compare every key except ``telemetry`` with the committed
``results/<EXP>.json`` (committed records carry no telemetry). Floats
compare exactly, so any change in the last bit of a simulated or
modelled number fails the check.

Exit status 0 = every record matches; 1 = at least one differs, with
the experiment and the first differing key printed. Used by the CI
``test`` job and runnable locally::

    PYTHONPATH=src python scripts/check_records.py fig5 fig6 colocation
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

REPO = Path(__file__).resolve().parents[1]
RESULTS = REPO / "results"


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


def regenerate(experiment: str, out_dir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, "-m", "repro", "run", experiment, "--mode",
           "smoke", "--seed", "0", "--no-cache", "--out", str(out_dir)]
    proc = subprocess.run(cmd, env=env, cwd=REPO, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads((out_dir / f"{experiment}.json").read_text())


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("experiments", nargs="+", metavar="EXP")
    args = parser.parse_args(argv)

    failed = 0
    for exp in args.experiments:
        committed = RESULTS / f"{exp}.json"
        if not committed.exists():
            print(f"FAIL {exp}: no committed record {committed}")
            failed += 1
            continue
        want = json.loads(committed.read_text())
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix=f"records-{exp}-") as tmp:
            try:
                got = regenerate(exp, Path(tmp))
            except RuntimeError as exc:
                print(f"FAIL {exp}: {exc}")
                failed += 1
                continue
        got.pop("telemetry", None)
        want.pop("telemetry", None)
        diff = first_difference(got, want)
        dt = time.perf_counter() - t0
        if diff is None:
            print(f"ok   {exp} ({dt:.1f} s)")
        else:
            print(f"FAIL {exp}: first differing key {diff}")
            failed += 1
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
