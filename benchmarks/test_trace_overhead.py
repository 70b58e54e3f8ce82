"""Tracing overhead budget: enabled tracing must cost <3% of engine time.

The span layer keeps itself off the per-access hot loop (bench spans sit
at (shape, kernel, round) granularity; engine spans at warmup/measure and
per scheduler window), so what tracing costs a run is the number of
trace events it emits times the cost of one event. This gate measures
exactly that, on the ``repro bench engine`` subset below:

- the events one traced run of the bench emits;
- the cost of one event: the median, over batches, of the time per
  enabled span written to a real JSONL event log;
- the wall time of an untraced run of the bench (median of a few).

Overhead = events x cost / wall time, which must stay under 3%. Timing
traced against untraced runs directly cannot resolve 3% on a shared
host: the runs' own spread is several times the budget, while the
product above moves only with the tracer's own work.
"""

import statistics
import time

from repro.bench import run_engine_bench
from repro.obs import configure_tracer, reset_tracer, span

#: The published budget: tracing costs under 3% of the bench's wall time.
MAX_OVERHEAD = 0.03

N_ACCESSES = 60_000
ROUNDS = 2
#: Untraced bench runs; their median is the wall time.
UNTRACED_RUNS = 3

#: Fast subset (the ``--shapes`` flag): two single-core shapes plus one
#: multicore shape cover the bench spans and the engine spans of both
#: scheduler paths.
SHAPES = ("random", "stream", "mc_csthr")

#: Spans per timed batch, and batches whose median is the event cost.
BATCH = 200
BATCHES = 25


def _bench():
    run_engine_bench(n_accesses=N_ACCESSES, rounds=ROUNDS, shapes=SHAPES)


def _events_per_run(path):
    """Trace events one traced bench run emits (meta header excluded)."""
    tracer = configure_tracer(path)
    try:
        before = len(tracer.events)
        _bench()
        return len(tracer.events) - before
    finally:
        reset_tracer()


def _seconds_per_event(path):
    """Median per-span time of enabled spans streamed to ``path``."""
    configure_tracer(path)
    try:
        per_span = []
        for _ in range(BATCHES):
            t0 = time.perf_counter()
            for i in range(BATCH):
                with span("engine.schedule", cat="engine", mode="macro-c", k=i):
                    pass
            per_span.append((time.perf_counter() - t0) / BATCH)
        return statistics.median(per_span)
    finally:
        reset_tracer()


def _untraced_seconds():
    reset_tracer()
    walls = []
    for _ in range(UNTRACED_RUNS):
        t0 = time.perf_counter()
        _bench()
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def test_tracing_overhead_within_budget(tmp_path):
    events = _events_per_run(tmp_path / "bench.jsonl")
    cost = _seconds_per_event(tmp_path / "spans.jsonl")
    wall = _untraced_seconds()
    overhead = events * cost / wall
    print(f"\ntracing overhead: {overhead * 100:.3f}% = {events} events x "
          f"{cost * 1e6:.1f} us / {wall:.3f} s untraced "
          f"(budget {MAX_OVERHEAD * 100:.0f}%)")
    assert overhead < MAX_OVERHEAD, (
        f"tracing costs {overhead * 100:.1f}% of the engine bench's wall "
        f"time ({events} events x {cost * 1e6:.1f} us / {wall:.3f} s), "
        f"budget is {MAX_OVERHEAD * 100:.0f}%"
    )
