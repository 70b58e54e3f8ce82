"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    Show every reproducible experiment and its paper reference.
``run <experiment> [--mode smoke|paper|full] [--seed N] [--out DIR]
[--workers N] [--backend serial|thread|process] [--cache-dir DIR]
[--no-cache] [--clear-cache] [--journal FILE] [--resume]
[--fault-seed N] [--fault-rate P]``
    Run one experiment driver, print the rendered table/figure and save
    the JSON record.  ``--workers``/``--backend`` parallelise the
    interference-point sweeps; ``--cache-dir`` enables the on-disk
    point-result cache.  ``--journal`` records every completed point in
    a crash-safe JSONL file; after a kill, re-running with ``--resume``
    skips the journaled points and produces bit-identical output.
    ``--fault-seed`` turns on deterministic chaos injection (transient
    faults, hangs, worker crashes, cache corruption) for robustness
    drills.
``machine [--scale N]``
    Describe the (optionally scaled) Table I machine.
``bench engine [--out FILE] [--accesses N] [--rounds N] [--shapes A,B]
[--compare FILE] [--trace FILE]``
    Measure simulation-kernel throughput (accesses/sec per shape and
    kernel, plus multicore scheduler-mode rates) and write the
    machine-readable baseline; ``--shapes`` restricts to a subset of
    shapes, ``--compare`` prints an informational delta against a
    stored baseline.
``trace <file>``
    Summarise a recorded trace (either the Chrome JSON written by
    ``--trace`` or its crash-safe ``.jsonl`` event log): per-phase time,
    point-latency percentiles, cache/journal hit timelines, and a
    worker-utilization Gantt.
``submit --root DIR --app NAME --preset NAME --kind cs|bw --ks 0,1,2
[--tenant T] [--param k=v ...]``
    Submit one measurement job to the durable service queue rooted at
    DIR (created if missing); jobs are leased in submission order.
``serve --root DIR [--agents N] [--inline] [--lease-s S]
[--retry-budget N] [--timeout-s S]``
    Drain the queue: supervise a fleet of N agent processes (restarting
    crashed ones, requeuing expired leases) until every job is done or
    dead-lettered. ``--inline`` runs a single in-process agent instead
    — same broker, journals and fences, no subprocesses.
``queue --root DIR [--job ID]``
    Show queue statistics, the per-job table, and the dead-letter list,
    read from the broker's event log; with ``--job`` print one job's
    full state.
``query --root DIR [--tenant T] [--app A] [--preset P] [--kind cs|bw]
[--k-min N] [--k-max N] [--job ID] [--json] [--backfill]``
    Query the SQLite point index: one row per interference point
    (k, slowdown, time per access, trace id), filtered by tenant, app
    profile, preset, sweep kind or k-range; ``--json`` emits
    machine-readable rows, ``--backfill`` first writes the rows of done
    jobs the index lacks from their JSON artifacts. ``queue`` and
    ``query`` only read: both exit 1 when DIR holds no service queue.
``version``
    Print the package version.

Tracing: ``repro run <exp> --trace t.json`` streams spans to the
crash-safe event log ``t.json.jsonl`` while running and exports the
Chrome-trace JSON ``t.json`` (loads in chrome://tracing / Perfetto) at
the end — on the failure path too. ``REPRO_TRACE`` in the environment
enables the same thing without a flag.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from . import __version__
from .analysis import ExperimentRecord
from .config import xeon20mb
from .errors import ReproError, ServiceError


def _add_run_args(run_p: argparse.ArgumentParser) -> None:
    run_p.add_argument("experiment", help="experiment id (see 'list')")
    run_p.add_argument(
        "--mode", choices=("smoke", "paper", "full"), default=None,
        help="grid size (default: REPRO_MODE env or smoke)",
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--out", default=None, metavar="DIR",
        help="directory for the JSON record (default: ./results)",
    )
    run_p.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="parallel point workers (default: REPRO_WORKERS env or 1)",
    )
    run_p.add_argument(
        "--backend", choices=("serial", "thread", "process"), default=None,
        help="point runner backend (default: REPRO_RUNNER_BACKEND env; "
        "process when --workers > 1)",
    )
    run_p.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="enable the point-result cache in DIR "
        "(default: REPRO_CACHE_DIR env; unset disables caching)",
    )
    run_p.add_argument(
        "--no-cache", action="store_true",
        help="disable the point-result cache even if REPRO_CACHE_DIR is set",
    )
    run_p.add_argument(
        "--clear-cache", action="store_true",
        help="empty the point-result cache before running",
    )
    run_p.add_argument(
        "--journal", default=None, metavar="FILE",
        help="crash-safe campaign journal (JSONL); completed points are "
        "appended durably (default: REPRO_JOURNAL env)",
    )
    run_p.add_argument(
        "--resume", action="store_true",
        help="continue a killed run from its --journal, skipping "
        "completed points (output is bit-identical to an uninterrupted "
        "run)",
    )
    run_p.add_argument(
        "--fault-seed", type=int, default=None, metavar="N",
        help="enable deterministic fault injection (chaos drill) with "
        "this plan seed (default: REPRO_FAULT_SEED env; unset disables)",
    )
    run_p.add_argument(
        "--fault-rate", type=float, default=None, metavar="P",
        help="per-attempt probability of each injected fault kind "
        "(default: REPRO_FAULT_RATE env or 0.15)",
    )
    run_p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span trace: streams the crash-safe event log to "
        "FILE.jsonl and exports Chrome/Perfetto JSON to FILE at the end "
        "(default: REPRO_TRACE env; unset disables tracing)",
    )


def _add_machine_args(mach_p: argparse.ArgumentParser) -> None:
    mach_p.add_argument("--scale", type=int, default=None,
                        help="geometric down-scale (default: 16)")


def _add_bench_args(bench_p: argparse.ArgumentParser) -> None:
    bench_p.add_argument(
        "target", choices=("engine",),
        help="what to benchmark (currently only 'engine')",
    )
    bench_p.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the JSON baseline here (default: BENCH_engine.json)",
    )
    bench_p.add_argument(
        "--accesses", type=int, default=None, metavar="N",
        help="accesses per (shape, kernel) measurement (default: 200000)",
    )
    bench_p.add_argument(
        "--rounds", type=int, default=None, metavar="N",
        help="rounds per measurement, best kept (default: 3)",
    )
    bench_p.add_argument(
        "--shapes", default=None, metavar="A,B",
        help="comma-separated subset of shapes to run (single-core: "
             "random, stream, stream_writes; multicore: mc_csthr, "
             "mc_bwthr, mc_mixed; default: all)",
    )
    bench_p.add_argument(
        "--compare", default=None, metavar="FILE",
        help="print an informational delta against this stored baseline",
    )
    bench_p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span trace of the bench run (see 'run --trace')",
    )


def _add_trace_args(trace_p: argparse.ArgumentParser) -> None:
    trace_p.add_argument(
        "file",
        help="trace file: the Chrome JSON exported by --trace, or its "
        "crash-safe .jsonl event log",
    )


def _add_submit_args(submit_p: argparse.ArgumentParser) -> None:
    submit_p.add_argument("--root", required=True, metavar="DIR",
                          help="service root directory (shared with serve)")
    submit_p.add_argument("--app", default="probe",
                          help="app profile (see repro.service.APP_PROFILES)")
    submit_p.add_argument("--preset", default="xeon20mb",
                          help="socket preset (xeon20mb, exascale, tiny)")
    submit_p.add_argument("--kind", choices=("cs", "bw"), default="cs",
                          help="sweep kind: capacity (cs) or bandwidth (bw)")
    submit_p.add_argument("--ks", default="0,1,2,3,4,5", metavar="K,K,...",
                          help="comma-separated interference levels")
    submit_p.add_argument("--seed", type=int, default=0)
    submit_p.add_argument("--warmup", type=int, default=25_000,
                          metavar="N", help="warmup accesses per point")
    submit_p.add_argument("--measure", type=int, default=15_000,
                          metavar="N", help="measured accesses per point")
    submit_p.add_argument("--tenant", default="anonymous",
                          help="tenant label, a query filter")
    submit_p.add_argument(
        "--param", action="append", default=[], metavar="K=V",
        help="app-profile parameter (repeatable), e.g. "
        "--param buffer_bytes=52428800 --param dist=zipf",
    )


def _add_serve_args(serve_p: argparse.ArgumentParser) -> None:
    serve_p.add_argument("--root", required=True, metavar="DIR")
    serve_p.add_argument("--agents", type=int, default=2, metavar="N",
                         help="agent processes to supervise (default: 2)")
    serve_p.add_argument(
        "--inline", action="store_true",
        help="run one in-process agent instead of a subprocess fleet",
    )
    serve_p.add_argument("--lease-s", type=float, default=30.0,
                         help="lease duration / heartbeat window (s)")
    serve_p.add_argument("--retry-budget", type=int, default=3,
                         help="attempts before a job is dead-lettered")
    serve_p.add_argument("--timeout-s", type=float, default=600.0,
                         help="give up draining after this long")
    serve_p.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span trace of the serve run (see 'run --trace')",
    )


def _add_queue_args(queue_p: argparse.ArgumentParser) -> None:
    queue_p.add_argument("--root", required=True, metavar="DIR")
    queue_p.add_argument("--job", default=None, metavar="ID",
                         help="print one job's full state")


def _add_query_args(query_p: argparse.ArgumentParser) -> None:
    query_p.add_argument("--root", required=True, metavar="DIR")
    query_p.add_argument("--tenant", default=None)
    query_p.add_argument("--app", default=None,
                         help="filter by app profile")
    query_p.add_argument("--preset", default=None,
                         help="filter by socket preset")
    query_p.add_argument("--kind", choices=("cs", "bw"), default=None)
    query_p.add_argument("--job", default=None, metavar="ID")
    query_p.add_argument("--k-min", type=int, default=None, metavar="N",
                         help="lowest interference level (inclusive)")
    query_p.add_argument("--k-max", type=int, default=None, metavar="N",
                         help="highest interference level (inclusive)")
    query_p.add_argument("--json", action="store_true", dest="as_json",
                         help="emit rows as JSON instead of a table")
    query_p.add_argument(
        "--backfill", action="store_true",
        help="first write the rows of done jobs the store lacks from "
        "their JSON artifacts (repairs a deleted store)",
    )


_AddArgs = Callable[[argparse.ArgumentParser], None]

#: verb -> (help line, function adding the verb's arguments), in the
#: order ``repro --help`` lists them.
_VERBS: Dict[str, Tuple[str, Optional[_AddArgs]]] = {
    "list": ("list reproducible experiments", None),
    "version": ("print package version", None),
    "run": ("run one experiment", _add_run_args),
    "machine": ("describe the Table I machine", _add_machine_args),
    "bench": ("engine microbenchmarks", _add_bench_args),
    "trace": ("summarise a recorded span trace", _add_trace_args),
    "submit": ("submit a measurement job to the service queue",
               _add_submit_args),
    "serve": ("drain the service queue with a supervised fleet",
              _add_serve_args),
    "queue": ("inspect the service queue", _add_queue_args),
    "query": ("query the service's point index", _add_query_args),
}


def _build_parser(verb: Optional[str] = None) -> argparse.ArgumentParser:
    """The ``repro`` parser; with ``verb``, only that verb's subparser.
    The verb list in the usage line stays complete either way, so help
    and error text do not depend on how much was built."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Active Measurement of Memory Resource "
        "Consumption' (Casas & Bronevetsky, IPDPS 2014)",
    )
    # An explicit metavar would rename the subcommand argument in an
    # invalid-choice error, which only the full parser can raise.
    sub = parser.add_subparsers(
        dest="command",
        metavar=None if verb is None else "{" + ",".join(_VERBS) + "}",
    )
    for name, (help_text, add_args) in _VERBS.items():
        if verb in (None, name):
            verb_p = sub.add_parser(name, help=help_text)
            if add_args is not None:
                add_args(verb_p)
    return parser


def _parse_app_params(pairs: list) -> Dict[str, object]:
    """``--param k=v`` values with scalar coercion (int, float, bool,
    else string) — mirrors what JobSpec accepts."""
    params: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise SystemExit(f"--param needs K=V, got {pair!r}")
        value: object
        if raw.lower() in ("true", "false"):
            value = raw.lower() == "true"
        else:
            try:
                value = int(raw)
            except ValueError:
                try:
                    value = float(raw)
                except ValueError:
                    value = raw
        params[key] = value
    return params


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import DurableBroker, JobSpec

    try:
        ks = tuple(int(k) for k in args.ks.split(",") if k.strip())
    except ValueError:
        raise SystemExit(f"--ks must be comma-separated integers, got {args.ks!r}")
    spec = JobSpec(
        app=args.app, preset=args.preset, kind=args.kind, ks=ks,
        seed=args.seed, warmup_accesses=args.warmup,
        measure_accesses=args.measure,
        app_params=_parse_app_params(args.param),
    )
    broker = DurableBroker(args.root)
    job_id = broker.submit(spec, tenant=args.tenant)
    job = broker.job(job_id)
    print(f"trace: {job.trace_id}", file=sys.stderr)
    print(job_id)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    trace_path = _start_trace(args)
    try:
        if args.inline:
            from .service import ServiceClient

            client = ServiceClient(
                args.root, lease_s=args.lease_s,
                retry_budget=args.retry_budget,
            )
            n = client.drain()
            print(f"inline agent drained {n} job(s)", file=sys.stderr)
            stats = client.broker.stats()
            drained = True
        else:
            from .service import Supervisor

            sup = Supervisor(
                args.root, n_agents=args.agents, lease_s=args.lease_s,
                retry_budget=args.retry_budget,
            )
            drained = sup.drain(timeout_s=args.timeout_s)
            stats = sup.broker.stats()
            print(f"fleet: {sup.fleet_stats()}", file=sys.stderr)
    finally:
        _finish_trace(trace_path)
    by_state = stats["by_state"]
    print(f"queue: {by_state}", file=sys.stderr)
    if not drained:
        print(f"error: queue not drained within {args.timeout_s}s",
              file=sys.stderr)
        return 1
    if by_state.get("dead"):
        print(f"warning: {by_state['dead']} job(s) in the dead-letter "
              "queue; inspect with 'repro queue'", file=sys.stderr)
    return 0


def _require_queue(root: str) -> None:
    """The read-only verbs must not create a service: a mistyped
    ``--root`` is an error, not an empty queue."""
    if not (Path(root) / "queue.jsonl").exists():
        raise ServiceError(f"no service queue at {root}")


def _cmd_queue(args: argparse.Namespace) -> int:
    from .service import DurableBroker

    _require_queue(args.root)
    broker = DurableBroker(args.root)
    if args.job is not None:
        job = broker.job(args.job)
        if job is None:
            print(f"unknown job {args.job!r}", file=sys.stderr)
            return 1
        print(f"{job.id}  state={job.state} tenant={job.tenant} "
              f"attempts={job.attempts} failures={job.failures}")
        print(f"  trace: {job.trace_id}")
        print(f"  spec: {job.spec.to_dict()}")
        if job.result_path:
            print(f"  result: {job.result_path}")
        if job.telemetry:
            hits = job.telemetry.get("cache_hits", 0)
            jhits = job.telemetry.get("journal_hits", 0)
            print(f"  telemetry: {jhits} journal hits, {hits} cache hits, "
                  f"{job.telemetry.get('points_done', 0)} points")
        for err in job.errors:
            print(f"  error: {err}")
        return 0
    stats = broker.stats()
    print(f"jobs: {stats['jobs']}  by state: {stats['by_state']}")
    for job in broker.jobs():
        line = (f"  {job.id}  {job.state:7s} tenant={job.tenant} "
                f"attempts={job.attempts}")
        if job.errors:
            line += f" last_error={job.errors[-1]!r}"
        print(line)
    dead = broker.dead_letter()
    if dead:
        print(f"dead-letter ({len(dead)}):")
        for job in dead:
            print(f"  {job.id}: {job.errors[-1] if job.errors else '?'}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    from .service import DurableBroker, ResultsStore

    _require_queue(args.root)
    store = ResultsStore(args.root)
    if args.backfill:
        n = store.backfill(DurableBroker(args.root))
        print(f"backfilled {n} job(s) from the broker state and JSON "
              "artifacts", file=sys.stderr)
    filters = dict(
        tenant=args.tenant, app=args.app, preset=args.preset,
        kind=args.kind, job_id=args.job,
        k_min=args.k_min, k_max=args.k_max,
    )
    if args.as_json:
        print(store.query_json(**filters))
        return 0
    rows = store.query_points(**filters)
    print(f"{'job':22s} {'tenant':10s} {'app':8s} {'preset':9s} "
          f"{'kind':4s} {'k':>3s} {'slowdown':>9s} {'t/access ns':>12s}")
    for row in rows:
        slowdown = (f"{row['slowdown']:9.4f}"
                    if row["slowdown"] is not None else "        -")
        print(f"{row['job_id']:22s} {row['tenant']:10s} {row['app']:8s} "
              f"{row['preset']:9s} {row['kind']:4s} {row['k']:3d} "
              f"{slowdown} {row['t_access_ns']:12.3f}")
    print(f"{len(rows)} point row(s)", file=sys.stderr)
    return 0


def _apply_runner_options(args: argparse.Namespace) -> None:
    """Translate runner CLI flags into the env vars ``default_runner``
    reads, so every driver picks them up without plumbing."""
    import os

    if args.workers is not None:
        if args.workers < 1:
            raise SystemExit("--workers must be >= 1")
        os.environ["REPRO_WORKERS"] = str(args.workers)
    if args.backend is not None:
        os.environ["REPRO_RUNNER_BACKEND"] = args.backend
    if args.no_cache:
        os.environ.pop("REPRO_CACHE_DIR", None)
    elif args.cache_dir is not None:
        os.environ["REPRO_CACHE_DIR"] = args.cache_dir
    if args.clear_cache:
        from .core.parallel import ResultCache

        cache = ResultCache.from_env()
        if cache is not None:
            n = cache.clear()
            print(f"cleared {n} cached point(s) from {cache.directory}",
                  file=sys.stderr)

    journal = args.journal or os.environ.get("REPRO_JOURNAL")
    if journal:
        from pathlib import Path

        path = Path(journal)
        if path.exists() and path.stat().st_size > 0 and not args.resume:
            raise SystemExit(
                f"journal {path} already exists; pass --resume to continue "
                "that run, or delete the file to start over"
            )
        os.environ["REPRO_JOURNAL"] = str(path)
    elif args.resume:
        raise SystemExit("--resume needs --journal FILE (or REPRO_JOURNAL)")
    if args.fault_seed is not None:
        os.environ["REPRO_FAULT_SEED"] = str(args.fault_seed)
    if args.fault_rate is not None:
        os.environ["REPRO_FAULT_RATE"] = str(args.fault_rate)


def _start_trace(args: argparse.Namespace) -> Optional[Path]:
    """Enable the span tracer when ``--trace`` (or ``REPRO_TRACE``) asks
    for it. Events stream to ``<FILE>.jsonl``; the Chrome export lands
    at ``<FILE>`` when :func:`_finish_trace` runs."""
    import os

    target = getattr(args, "trace", None) or os.environ.get("REPRO_TRACE")
    if not target:
        return None
    from .obs.tracer import configure_tracer

    path = Path(target)
    configure_tracer(Path(str(path) + ".jsonl"))
    return path


def _finish_trace(path: Optional[Path]) -> None:
    """Close the event log and export the Chrome trace. Runs on success
    and failure paths alike — a trace of a failed campaign is exactly
    the artifact needed to diagnose it."""
    if path is None:
        return
    from .obs.export import chrome_trace, write_chrome_trace
    from .obs.tracer import tracer

    t = tracer()
    t.finish()
    out = write_chrome_trace(path, chrome_trace(t.events))
    print(
        f"trace written to {out} (event log: {t.path}); "
        f"inspect with 'repro trace {out}' or load in Perfetto",
        file=sys.stderr,
    )


def main(argv: Optional[list] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A CLI process runs one verb, so build only its subparser.
    parser = _build_parser(argv[0] if argv and argv[0] in _VERBS else None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2

    if args.command == "version":
        print(__version__)
        return 0

    if args.command == "machine":
        socket = xeon20mb() if args.scale is None else xeon20mb(scale=args.scale)
        print(socket.describe())
        return 0

    if args.command in ("submit", "serve", "queue", "query"):
        handler = {"submit": _cmd_submit, "serve": _cmd_serve,
                   "queue": _cmd_queue, "query": _cmd_query}[args.command]
        try:
            return handler(args)
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.command == "trace":
        from .obs.summary import summarize_trace

        try:
            print(summarize_trace(args.file))
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    if args.command == "bench":
        import json

        from . import bench as bench_mod

        kwargs = {}
        if args.accesses is not None:
            kwargs["n_accesses"] = args.accesses
        if args.rounds is not None:
            kwargs["rounds"] = args.rounds
        if args.shapes is not None:
            kwargs["shapes"] = [
                s.strip() for s in args.shapes.split(",") if s.strip()
            ]
        trace_path = _start_trace(args)
        print("measuring engine throughput ...", file=sys.stderr)
        try:
            baseline = bench_mod.run_engine_bench(**kwargs)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        _finish_trace(trace_path)
        print(bench_mod.format_engine_bench(baseline))
        if args.compare is not None:
            with open(args.compare) as fh:
                reference = json.load(fh)
            print(bench_mod.compare_engine_bench(baseline, reference))
        out = args.out if args.out is not None else "BENCH_engine.json"
        bench_mod.write_engine_bench(out, baseline)
        print(f"baseline written to {out}", file=sys.stderr)
        return 0

    if args.command == "list":
        from .experiments import EXPERIMENTS

        width = max(len(k) for k in EXPERIMENTS)
        for name, (desc, _, _) in EXPERIMENTS.items():
            print(f"{name.ljust(width)}  {desc}")
        return 0

    if args.command == "run":
        from .experiments import EXPERIMENTS

        if args.experiment not in EXPERIMENTS:
            print(
                f"unknown experiment {args.experiment!r}; run 'repro list'",
                file=sys.stderr,
            )
            return 2
        desc, run_fn, render_fn = EXPERIMENTS[args.experiment]
        _apply_runner_options(args)
        trace_path = _start_trace(args)
        print(f"running {args.experiment} ({desc}) ...", file=sys.stderr)
        from .core.parallel import reset_session_telemetry, session_telemetry
        from .obs.tracer import span as trace_span

        reset_session_telemetry()
        failure: Optional[ReproError] = None
        record: Optional[ExperimentRecord] = None
        try:
            with trace_span("experiment", cat="experiment",
                            experiment=args.experiment):
                record = run_fn(args.mode, seed=args.seed)
        except ReproError as exc:
            failure = exc
        # Telemetry and the trace must survive the failure path: a
        # partially-completed campaign's counters and spans matter most
        # exactly when the run needs diagnosing.
        telemetry = session_telemetry()
        if telemetry.points_total:
            if record is not None:
                record.attach_telemetry(telemetry.as_dict())
            print(f"runner: {telemetry.summary()}", file=sys.stderr)
        _finish_trace(trace_path)
        if failure is not None or record is None:
            print(f"error: {failure}", file=sys.stderr)
            return 1
        if render_fn is not None:
            print(render_fn(record))
        for note in record.notes:
            print(f"  * {note}")
        out_dir = args.out
        if out_dir is None:
            from .experiments.common import DEFAULT_RESULTS_DIR

            out_dir = DEFAULT_RESULTS_DIR
        path = record.save(out_dir)
        print(f"record saved to {path}", file=sys.stderr)
        return 0

    parser.print_help()
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
