#!/usr/bin/env python3
"""End-to-end campaign benchmark with a per-layer ledger.

Runs the workloads of ``workloads.py`` one at a time, each in a fresh
child process (a serial runner, one worker, every ``REPRO_*`` knob
unset), prints every end-to-end metric of ``BENCHMARK.json`` with its
unit, checks the simulated outputs against invariants and, for seeds 0
and 1, against the reference digests in ``reference.json``, and writes a
result JSON for ``compare.py``.

    python3 benchmarks/perf/run.py --seed 0                  # all workloads
    python3 benchmarks/perf/run.py --seed 0 --repeats 3 --trace --out DIR
    python3 benchmarks/perf/run.py --workload short_points --seed 4 \\
        --seconds 15 --trace 0                               # one run
    python3 benchmarks/perf/run.py --write-reference [--scale tiny]

Every timing an untraced run reports is host time at the reference
host's speed: the raw time divided by the run's ``host_slowdown``, which
the ``HostSpeed`` gauge of ``ledger.py`` measures during the run. The
raw times are kept beside them. ``--trace`` adds one traced run per
workload after the untraced ones and reports its per-layer metrics
instead, in raw host time; its ``trace.overhead`` is its wall time
against the untraced runs' raw median. The last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. The exit code is 0 only when every output check passed.

The runs' work directories under ``.bench_build/perf/work`` are never
deleted, because deleting thousands of service files slows the file
creation of later service_drain runs (README.md, Stability). Remove the
directory by hand to reclaim the space.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from compare import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "perf"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("capacity_grid", "paper_mix", "short_points", "service_drain")
#: Seeds whose output digests are pinned in reference.json.
REFERENCE_SEEDS = (0, 1)
#: Set-up-only children spawned per measured run; with the measured
#: child's own set-up that makes seven samples, reported as their median.
SETUP_SPAWNS = 6
#: Wall-clock budget for everything one measured run spawns.
RUN_BUDGET_S = 170.0
#: Timings over whole rounds or jobs, which include the durable writes;
#: point and query latencies and set-up hold none.
ROUND_TIMINGS = ("wall_s", "sim_maccess_per_s", "points_per_s", "jobs_per_s",
                 "job_p50_ms", "job_p95_ms")
CHECK_UNITS = {"ladder_mae_mb": "MB", "calib_err_pct": "%", "failed_ratio": "ratio"}


class HarnessError(RuntimeError):
    """A child failed or timed out: no measurement to report."""


# -- child side ---------------------------------------------------------------


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


class Session:
    """One workload measured in this process: probes (and, when traced,
    the ledger) installed, inputs prepared — everything ``setup_s``
    covers — then :meth:`measure` runs rounds."""

    def __init__(self, name: str, seed: int, scale: str, trace: bool,
                 workdir: Path, keep_spans: bool = False):
        from ledger import Ledger, Probes
        from workloads import WORKLOADS

        try:
            from repro.engine import _ckernel
            self.ckernel = _ckernel.available()
        except ImportError:
            self.ckernel = False
        workdir.mkdir(parents=True, exist_ok=True)
        # The traced run goes without the HostSpeed gauge, whose samples
        # would land in the self time of the simulator's constructor.
        self.probes = Probes(speed_dir=None if trace else workdir)
        self.probes.install()
        self.ledger = Ledger(keep_spans=keep_spans) if trace else None
        if self.ledger is not None:
            self.ledger.install()
        self.workload = WORKLOADS[name](seed, scale, workdir, self.probes)
        self.workload.prepare()

    def close(self) -> None:
        if self.ledger is not None:
            self.ledger.uninstall()
        self.probes.uninstall()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def measure(self, seconds: float, spans_path: Optional[Path] = None
                ) -> Dict[str, Any]:
        """Run whole rounds while the next one is expected to end within
        ``seconds`` (always at least one; exactly one when traced)."""
        from repro.core.parallel import reset_session_telemetry, session_telemetry
        from workloads import no_span, percentile

        wl, probes, ledger = self.workload, self.probes, self.ledger
        speed = probes.speed
        span = ledger.span if ledger is not None else no_span
        if speed is not None:
            speed.clear()
        walls: List[float] = []
        fsync_s = 0.0
        accesses = 0
        points: List[float] = []
        jobs: List[float] = []
        queries: List[float] = []
        digests: List[str] = []
        problems: List[str] = []
        failed = 0
        checks: Dict[str, float] = {}
        layers: Dict[str, float] = {}
        t_start = time.perf_counter()
        while True:
            if walls:
                wl.prepare()
            reset_session_telemetry()
            probes.reset()
            if ledger is not None:
                ledger.reset()
            t0 = time.perf_counter()
            out = wl.run(span)
            wall = time.perf_counter() - t0
            walls.append(wall)
            fsync_s += probes.fsync_s
            accesses += probes.accesses
            points += probes.point_latencies
            jobs += out.job_latencies
            queries += out.query_latencies
            failed += out.failed
            checks = out.checks
            digests.append(out.digest)
            problems += out.problems
            if ledger is not None:
                layers = self._layers(wall, out, session_telemetry())
                if spans_path is not None:
                    ledger.write_spans(spans_path)
                ledger.uninstall()
            problems += wl.check(out)
            elapsed = time.perf_counter() - t_start
            if ledger is not None or elapsed + _median(walls) > seconds:
                break
        # Read before the percentiles, whose first call imports scipy.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(set(digests)) > 1:
            problems.append(f"{wl.name}: repeated rounds gave different outputs")
        total = sum(walls)
        n_jobs = len(jobs)
        raw = {
            "wall_s": _median(walls),
            "sim_maccess_per_s": accesses / total / 1e6,
            "points_per_s": len(points) / total,
            "point_p50_ms": percentile(points, 50) * 1e3,
            "point_p90_ms": percentile(points, 90) * 1e3,
            "jobs_per_s": n_jobs / total,
        }
        # Reported without a bound (README.md says why). A query
        # percentile has at least ten samples beyond it.
        raw_extra = {
            "point_p99_ms": percentile(points, 99) * 1e3,
            "job_p50_ms": percentile(jobs, 50) * 1e3,
            "job_p95_ms": percentile(jobs, 95) * 1e3,
        }
        if queries:
            raw_extra["query_p50_ms"] = percentile(queries, 50) * 1e3
            raw_extra["query_p95_ms"] = percentile(queries, 95) * 1e3
        # Host time at the reference host's speed. The rounds' time in
        # os.fsync is scaled by the gauge's fsync slowdown, the rest by
        # its cpu slowdown; "run" is the blend of the two.
        cpu = speed.slowdown("cpu") if speed is not None else 1.0
        disk = speed.slowdown("fsync") if speed is not None else 1.0
        slowdown = {"cpu": cpu, "fsync": disk,
                    "run": total / ((total - fsync_s) / cpu + fsync_s / disk)}

        def at_reference_speed(name: str, value: float) -> float:
            s = slowdown["run" if name in ROUND_TIMINGS else "cpu"]
            return value * s if name.endswith("_per_s") else value / s

        metrics = {name: at_reference_speed(name, value) for name, value in raw.items()}
        metrics["peak_rss_mb"] = peak_rss_mb
        extra = {name: at_reference_speed(name, value) for name, value in raw_extra.items()}
        attempted = len(points) + n_jobs + len(queries)
        return {
            "workload": wl.name,
            "rounds": len(walls),
            "metrics": metrics,
            "raw": dict(raw, **raw_extra),
            "host_slowdown": slowdown,
            "fsync_share": fsync_s / total,
            "speed_samples": len(speed.samples["cpu"]) if speed is not None else 0,
            "extra": extra,
            "layers": layers,
            "samples": {"points": len(points), "jobs": n_jobs,
                        "queries": len(queries)},
            "attempted": attempted,
            "failed": failed,
            "checks": dict(checks, failed_ratio=failed / max(attempted, 1)),
            "digest": digests[0],
            "problems": problems,
            "absent_targets": self.probes.absent + (ledger.absent if ledger else []),
            "ckernel": self.ckernel,
        }

    def _layers(self, wall: float, out, tele) -> Dict[str, float]:
        from ledger import LAYER_FUNCTIONS
        from workloads import percentile

        ledger, probes = self.ledger, self.probes
        assert ledger is not None
        layers: Dict[str, float] = {}
        for fn in LAYER_FUNCTIONS:
            layers[f"{fn}.calls"] = ledger.calls.get(fn, 0)
            layers[f"{fn}.self_s"] = ledger.self_s.get(fn, 0.0)
        lookups = tele.cache_hits + tele.cache_misses
        layers["core.cache.hit_ratio"] = tele.cache_hits / lookups if lookups else 0.0
        layers["core.journal.hit_ratio"] = (
            tele.journal_hits / tele.points_total if tele.points_total else 0.0)
        layers["core.retries"] = tele.retries
        layers["core.failures"] = tele.failures
        waits = [t - probes.submitted[j] for j, t in probes.leased.items()
                 if j in probes.submitted]
        layers["service.queue_wait_p50_ms"] = percentile(waits, 50) * 1e3
        layers["service.query_p50_ms"] = percentile(out.query_latencies, 50) * 1e3
        layers["service.query_p95_ms"] = percentile(out.query_latencies, 95) * 1e3
        layers["sim.accesses"] = probes.accesses
        layers["trace.coverage"] = ledger.covered_s / wall
        layers["trace.unattributed_s"] = wall - ledger.covered_s
        layers["trace.absent_targets"] = len(ledger.absent) + len(probes.absent)
        return layers


def child_main(args: argparse.Namespace) -> int:
    workdir = Path(args.workdir)
    spans = Path(args.spans) if args.spans else None
    session = Session(args.workload, args.seed, args.scale, bool(args.trace),
                      workdir, keep_spans=spans is not None)
    with session:
        print("READY", flush=True)
        if args.setup_only:
            return 0
        result = session.measure(args.seconds, spans_path=spans)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


# -- parent side --------------------------------------------------------------


def child_env() -> Dict[str, str]:
    """The children's environment: no ``REPRO_*`` knob, the C kernel
    cache and temp files inside the checkout, one BLAS thread."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CKERNEL_CACHE"] = str(BUILD / "ckernel")
    env["TMPDIR"] = str(BUILD / "tmp")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _lines(proc: subprocess.Popen, deadline: float):
    """Yield the child's stdout lines as they arrive, until EOF; raise
    HarnessError past the deadline. Reads the raw pipe so a line is
    seen the moment the child flushes it."""
    assert proc.stdout is not None
    fd = proc.stdout.fileno()
    pending = b""
    while True:
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line.decode(errors="replace")
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            raise HarnessError("child timed out")
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            if pending:
                yield pending.decode(errors="replace")
            return
        pending += chunk


def spawn(argv: List[str], env: Dict[str, str], deadline: float
          ) -> Tuple[float, Optional[Dict[str, Any]]]:
    """Run one child; returns (seconds from spawn to READY, result)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "run.py"), *argv],
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            env=env, cwd=str(ROOT), bufsize=0)
    ready_s: Optional[float] = None
    result = None
    try:
        for line in _lines(proc, deadline):
            if line == "READY":
                ready_s = time.perf_counter() - t0
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                print(line, file=sys.stderr)
        rc = proc.wait(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise HarnessError("child did not exit in time") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    if rc != 0 or ready_s is None:
        raise HarnessError(f"child {' '.join(argv)} exited with code {rc}")
    return ready_s, result


def measured_run(name: str, args: argparse.Namespace, trace: bool,
                 env: Dict[str, str], run_id: str,
                 setup_spawns: int = SETUP_SPAWNS) -> Dict[str, Any]:
    """Set-up-only spawns (untraced runs) then the measured child."""
    started_at = time.time()
    deadline = time.perf_counter() + RUN_BUDGET_S
    workdir = BUILD / "work" / f"{name}-{os.getpid()}-{run_id}"
    base = ["--child", "--workload", name, "--seed", str(args.seed),
            "--scale", args.scale, "--workdir", str(workdir)]
    setup = []
    for _ in range(0 if trace else setup_spawns):
        setup.append(spawn(base + ["--setup-only"], env, deadline)[0])
    extra = ["--seconds", str(args.seconds), "--trace", str(int(trace))]
    if trace:
        extra += ["--spans", str(Path(args.out) / f"trace-{name}.jsonl")]
    # Write back what earlier runs and the set-up spawns left dirty
    # (thousands of service files), so that the writeback does not
    # stall the durable writes of this round.
    os.sync()
    ready_s, result = spawn(base + extra, env, deadline)
    if result is None:
        raise HarnessError(f"{name}: child reported no result")
    setup.append(ready_s)
    result["setup_samples"] = setup
    result["raw"]["setup_s"] = _median(setup)
    # The set-up spawns end seconds before the measured round, well
    # within one episode of host load, so the round's cpu slowdown
    # applies: set-up is imports and computation.
    result["metrics"]["setup_s"] = _median(setup) / result["host_slowdown"]["cpu"]
    result["started_at"] = started_at
    return result


def load_json(path: Path) -> Dict[str, Any]:
    return json.loads(path.read_text())


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint() -> Dict[str, Any]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }


def verify(result: Dict[str, Any], name: str, args: argparse.Namespace,
           reference: Dict[str, Any], metric_names: List[str]) -> List[str]:
    """All problems with one run: failed checks, a digest that differs
    from the reference, missing or zero end-to-end metrics."""
    problems = list(result["problems"])
    if result["failed"]:
        problems.append(f"{name}: {result['failed']} operation(s) failed")
    expected = (reference.get("digests", {}).get(args.scale, {})
                .get(name, {}).get(str(args.seed)))
    if expected is not None and result["digest"] != expected:
        problems.append(
            f"{name}: output digest {result['digest'][:16]} does not match "
            f"the seed {args.seed} reference {expected[:16]}")
    if not result["layers"]:
        for metric in metric_names:
            if not result["metrics"].get(metric):
                problems.append(f"{name}: end-to-end metric {metric} is zero")
    return problems


def print_run(name: str, result: Dict[str, Any], units: Dict[str, str]) -> None:
    values = result["layers"] or result["metrics"]
    label = "traced" if result["layers"] else "untraced"
    print(f"== {name} ({label}, {result['rounds']} round(s), "
          f"samples {result['samples']})")
    for metric, value in values.items():
        if metric in units:
            print(f"  {metric:36s} {value:14.6g} {units[metric]}")
    if not result["layers"]:
        for metric, value in result["extra"].items():
            print(f"  {metric:36s} {value:14.6g} ms (no bound)")
        slowdown = result["host_slowdown"]
        print(f"  host slowdown cpu {slowdown['cpu']:.4f}, fsync {slowdown['fsync']:.4f}, "
              f"run {slowdown['run']:.4f} ({result['speed_samples']} samples, "
              f"{100 * result['fsync_share']:.1f}% of the rounds in fsync); "
              f"raw wall {result['raw']['wall_s']:.4f} s, "
              f"raw set-up {result['raw']['setup_s']:.4f} s")
    for check, value in result["checks"].items():
        print(f"  check {check:30s} {value:14.6g} {CHECK_UNITS[check]}")
    if result["layers"]:
        wall = result["metrics"]["wall_s"]
        print(f"  unattributed {result['layers']['trace.unattributed_s']:.3f} s "
              f"of {wall:.3f} s wall "
              f"(coverage {100 * result['layers']['trace.coverage']:.1f}%)")
    if result["absent_targets"]:
        print(f"  absent targets: {', '.join(result['absent_targets'])}")
    print(f"  digest {result['digest'][:16]}")


def write_reference(args: argparse.Namespace, names: List[str],
                    env: Dict[str, str]) -> int:
    reference = load_json(REFERENCE) if REFERENCE.exists() else {}
    table = reference.setdefault("digests", {}).setdefault(args.scale, {})
    args.seconds = 0.0
    for name in names:
        for seed in REFERENCE_SEEDS:
            args.seed = seed
            result = measured_run(name, args, False, env, f"ref{seed}", setup_spawns=0)
            if result["problems"] or result["failed"]:
                print("\n".join(result["problems"]), file=sys.stderr)
                return 1
            table.setdefault(name, {})[str(seed)] = result["digest"]
            print(f"{args.scale} {name} seed {seed}: {result['digest']}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                   help="run one workload (default: all, one after another)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="measure whole rounds for about this long "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1),
                   help="after the untraced runs, add a traced run and "
                        "report its per-layer metrics")
    p.add_argument("--repeats", type=int, default=1,
                   help="untraced runs per workload; metrics are their medians")
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--out", default=str(BUILD / "results"),
                   help="directory for result.json and trace-*.jsonl")
    p.add_argument("--write-reference", action="store_true",
                   help="regenerate the seed 0/1 digests for --scale "
                        "(run on the parent commit only)")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    p.add_argument("--spans", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be at least 1")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    bench = load_json(ROOT / "BENCHMARK.json")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    e2e_specs = {m["name"]: m for m in bench["end_to_end"]}
    e2e_units = {name: m["unit"] for name, m in e2e_specs.items()}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    for sub in ("tmp", "work"):
        (BUILD / sub).mkdir(parents=True, exist_ok=True)
    Path(args.out).mkdir(parents=True, exist_ok=True)
    env = child_env()
    try:
        # Warm the bytecode and C-kernel caches so no set-up sample pays
        # for compilation.
        spawn(["--child", "--setup-only", "--workload", names[0],
               "--scale", args.scale,
               "--workdir", str(BUILD / "work" / f"warm-{os.getpid()}")],
              env, time.perf_counter() + RUN_BUDGET_S)
        if args.write_reference:
            return write_reference(args, names, env)
        reference = load_json(REFERENCE) if REFERENCE.exists() else {}
        report: Dict[str, Any] = {
            "format": 1, "seed": args.seed, "scale": args.scale,
            "seconds": args.seconds, "repeats": args.repeats,
            "trace": bool(args.trace), "fingerprint": fingerprint(),
            "source_digest": source_digest(), "workloads": {},
        }
        problems: List[str] = []
        attempted = failed = 0
        final: Dict[str, Dict[str, Any]] = {}
        for name in names:
            runs = [measured_run(name, args, False, env, str(i))
                    for i in range(args.repeats)]
            entry: Dict[str, Any] = {
                "runs": runs, "summary": summary({name: runs}, e2e_specs)[name]}
            values = {m: s["median"] for m, s in entry["summary"].items()}
            units = e2e_units
            if args.trace:
                # The traced child runs without the HostSpeed gauge, so
                # the overhead compares raw host times.
                traced = measured_run(name, args, True, env, "t")
                traced["layers"]["trace.overhead"] = (
                    traced["metrics"]["wall_s"]
                    / _median([r["raw"]["wall_s"] for r in runs]) - 1.0)
                entry["traced"] = traced
                values, units = traced["layers"], layer_units
            for result in runs + ([entry["traced"]] if args.trace else []):
                print_run(name, result, layer_units if result["layers"] else e2e_units)
                problems += verify(result, name, args, reference, list(e2e_units))
                attempted += result["attempted"]
                failed += result["failed"]
            report["workloads"][name] = entry
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, unit in units.items():
                final[prefix + metric] = {"value": values[metric], "unit": unit}
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    report["problems"] = problems
    out_path = Path(args.out) / "result.json"
    out_path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"result written to {out_path}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
