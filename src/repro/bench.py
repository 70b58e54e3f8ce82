"""Engine-throughput baseline: ``repro bench engine``.

Measures the fused simulation kernels (accesses/second) on the traffic
shapes that dominate the paper's campaigns and writes a machine-readable
baseline (``BENCH_engine.json`` at the repo root, by convention). The
committed baseline documents the list→array kernel speedup and gives CI
an informational reference point; ``compare_engine_bench`` reports
relative changes against it without ever failing the build (absolute
throughput is machine-dependent — only the within-machine kernel ratio
is meaningful across hosts). Without a C compiler the ``arrays`` rows
and their ratio are simply absent.

Shapes
------

``random``
    CSThr-shaped uniform-random writes over a >L3 footprint with the
    prefetcher off — the capacity-probe regime of Section III-C.
``stream``
    BWThr-shaped constant-stride reads with the prefetcher on — the
    bandwidth-probe regime of Section III-A.
``stream_writes``
    The same stride stream but writing, so the dirty-writeback and
    arbiter writeback paths are hot as well.

Multicore shapes drive whole :class:`~repro.engine.Scheduler` windows —
a synthetic main against the paper's interference threads — through
the chunk-at-a-time reference (``sched-chunk``,
:func:`run_chunk_at_a_time`) and the macro-stepped scheduler
(``sched-macro``), so the recorded ``speedup_macro_vs_chunk`` documents
what macro-stepping buys on the shapes that dominate campaign wall
time:

``mc_csthr``
    1 x probabilistic benchmark + 3 x CSThr (capacity interference).
``mc_bwthr``
    1 x probabilistic benchmark + 3 x BWThr (bandwidth interference).
``mc_mixed``
    1 x probabilistic benchmark + 2 x CSThr + 2 x BWThr + 1 x STREAM
    triad (the colocation-campaign regime).
"""

from __future__ import annotations

import json
import platform
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .config import SocketConfig, xeon20mb
from .engine import (
    ArraySocket,
    CoreState,
    FastSocket,
    ScheduleOutcome,
    Scheduler,
    _ckernel,
    make_socket_kernel,
)
from .engine.chunk import AccessChunk
from .engine.thread import SimThread, ThreadContext
from .errors import SimulationError
from .mem import AddressSpace
from .obs.tracer import span as trace_span
from .obs.tracer import tracer as current_tracer

DEFAULT_N_ACCESSES = 200_000
DEFAULT_ROUNDS = 3

SCHEMA_VERSION = 5

#: The clock each round is timed with: the calling thread's CPU time,
#: which time spent waiting for a busy host's CPU does not inflate.
CLOCK = "thread_time"


def _random_chunks(n: int, quantum: int = 256) -> list:
    rng = np.random.default_rng(1)
    lines = rng.integers(1024, 1024 + 4096, size=n, dtype=np.int64)
    return [
        AccessChunk(lines=lines[i:i + quantum], is_write=True,
                    ops_per_access=6, prefetchable=False)
        for i in range(0, n, quantum)
    ]


def _stream_chunks(n: int, quantum: int = 128, is_write: bool = False) -> list:
    chunks, pos = [], 1_000_000
    for _ in range(0, n, quantum):
        chunks.append(AccessChunk(
            lines=np.arange(pos, pos + 7 * quantum, 7, dtype=np.int64),
            is_write=is_write, ops_per_access=39, stream_id=1,
        ))
        pos += 7 * quantum
    return chunks


SHAPES: Dict[str, Callable[[int], list]] = {
    "random": _random_chunks,
    "stream": _stream_chunks,
    "stream_writes": lambda n: _stream_chunks(n, is_write=True),
}


#: Interleave quantum for the multicore shapes. Deliberately finer than
#: the campaign defaults (128-256): per-chunk scheduling overhead grows
#: as the quantum shrinks, so fine-grained interleaving is both the
#: highest-fidelity regime (closest to hardware-grain interleaving) and
#: the one macro-stepping exists to make affordable. At this quantum the
#: macro scheduler sustains >= 3x the chunk-at-a-time rate (measured
#: 4.5-11x); at the campaign-default quanta the gap is ~1.7-2.7x.
MC_QUANTUM = 16


def _mc_csthr() -> List[Tuple[SimThread, bool]]:
    from .workloads import CSThr
    from .workloads.distributions import UniformDist
    from .workloads.synthetic import ProbabilisticBenchmark

    return [
        (ProbabilisticBenchmark(
            UniformDist(), 8 * 1024 * 1024, quantum=MC_QUANTUM), True),
    ] + [(CSThr(name=f"CSThr{i}", quantum=MC_QUANTUM), False) for i in range(3)]


def _mc_bwthr() -> List[Tuple[SimThread, bool]]:
    from .workloads import BWThr
    from .workloads.distributions import UniformDist
    from .workloads.synthetic import ProbabilisticBenchmark

    return [
        (ProbabilisticBenchmark(
            UniformDist(), 8 * 1024 * 1024, quantum=MC_QUANTUM), True),
    ] + [(BWThr(name=f"BWThr{i}", quantum=MC_QUANTUM), False) for i in range(3)]


def _mc_mixed() -> List[Tuple[SimThread, bool]]:
    from .workloads import BWThr, CSThr, StreamTriad
    from .workloads.distributions import UniformDist
    from .workloads.synthetic import ProbabilisticBenchmark

    return [
        (ProbabilisticBenchmark(
            UniformDist(), 8 * 1024 * 1024, quantum=MC_QUANTUM), True),
        (CSThr(name="CSThr0", quantum=MC_QUANTUM), False),
        (CSThr(name="CSThr1", quantum=MC_QUANTUM), False),
        (BWThr(name="BWThr0", quantum=MC_QUANTUM), False),
        (BWThr(name="BWThr1", quantum=MC_QUANTUM), False),
        (StreamTriad(quantum=MC_QUANTUM), False),
    ]


#: Multicore shapes: factories of (thread, is_main) rosters.
MC_SHAPES: Dict[str, Callable[[], List[Tuple[SimThread, bool]]]] = {
    "mc_csthr": _mc_csthr,
    "mc_bwthr": _mc_bwthr,
    "mc_mixed": _mc_mixed,
}


def run_chunk_at_a_time(
    sched: Scheduler,
    main_access_budget: Optional[int] = None,
    max_total_accesses: int = 500_000_000,
) -> ScheduleOutcome:
    """One :meth:`Scheduler.run` window, chunk at a time: the semantic
    reference for the macro-stepped scheduler.

    Each step pulls one chunk from the least-advanced runnable thread's
    generator and runs it through ``sched.fast.run_chunk``. Counters,
    clocks and finish times are bit-identical to :meth:`Scheduler.run`
    (``tests/engine/test_sched_equivalence.py``), at a fraction of its
    speed (the engine bench's ``sched-chunk`` rows). A scheduler must be
    driven by one of the two for its whole life: thread stream positions
    live in suspended generators here and in queued blocks there.
    """
    mains, outcome = sched.open_window()
    window_start = {c.core_id: c.accesses for c in mains}
    total = 0
    run_chunk = sched.fast.run_chunk

    active_mains = len(mains)
    runnable = [c for c in sched.cores if not c.done]
    while active_mains > 0:
        # Pick the least-advanced runnable core (first wins ties).
        best = None
        best_clock = float("inf")
        for c in runnable:
            if c.clock_ns < best_clock:
                best = c
                best_clock = c.clock_ns
        assert best is not None
        chunk = next(best.gen, None)
        if chunk is None or len(chunk) == 0:
            best.done = True
            best.finish_ns = best.clock_ns
            if best.is_main:
                outcome.main_finish_ns[best.core_id] = best.clock_ns
                active_mains -= 1
            runnable = [c for c in runnable if not c.done]
            continue
        # The safety limit fires *before* dispatch, naming the core that
        # would have crossed it.
        if total + len(chunk) > max_total_accesses:
            raise SimulationError(
                f"simulation would have exceeded {max_total_accesses} "
                f"accesses dispatching a {len(chunk)}-access chunk on "
                f"core {best.core_id} ({best.thread.name!r}) at "
                f"{total} total; likely a runaway interference-only "
                "configuration"
            )
        best.clock_ns = run_chunk(best.core_id, chunk, best.clock_ns)
        best.accesses += len(chunk)
        total += len(chunk)
        if (
            best.is_main
            and main_access_budget is not None
            and best.accesses - window_start[best.core_id] >= main_access_budget
        ):
            best.done = True
            best.finish_ns = best.clock_ns
            outcome.main_finish_ns[best.core_id] = best.clock_ns
            active_mains -= 1
            runnable = [c for c in runnable if not c.done]

    outcome.end_ns = max(outcome.main_finish_ns.values())
    outcome.total_accesses = total
    return outcome


def build_mc_scheduler(
    shape: str, socket: SocketConfig, seed0: int = 7
) -> Scheduler:
    """Fresh kernel, address space and threads for a multicore shape."""
    fast = make_socket_kernel(socket)
    space = AddressSpace(line_bytes=socket.line_bytes)
    cores = []
    for idx, (thread, is_main) in enumerate(MC_SHAPES[shape]()):
        ctx = ThreadContext(
            socket=socket,
            addrspace=space,
            rng=np.random.default_rng(seed0 + idx),
            core_id=idx,
        )
        thread.start(ctx)
        cores.append(
            CoreState(core_id=idx, thread=thread, gen=thread.chunks(), is_main=is_main)
        )
    return Scheduler(fast, cores)


def _kernels() -> Dict[str, Callable[[SocketConfig], object]]:
    kernels: Dict[str, Callable[[SocketConfig], object]] = {
        "lists": lambda s: FastSocket(s),
    }
    if _ckernel.available():
        kernels["arrays"] = lambda s: ArraySocket(s)
    return kernels


def machine_fingerprint() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ckernel_available": _ckernel.available(),
    }


def run_engine_bench(
    n_accesses: int = DEFAULT_N_ACCESSES,
    rounds: int = DEFAULT_ROUNDS,
    socket: Optional[SocketConfig] = None,
    shapes: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """Benchmark every kernel on every shape; returns the baseline dict.

    Each (shape, kernel) measurement builds a fresh kernel per round
    (cold caches, cold arbiter) and keeps the best round, the standard
    throughput-microbenchmark convention (minimum = least interference).
    The kernels of a shape, and the two scheduler modes of a multicore
    shape, take turns round by round, so a host that slows down for a
    while slows every one of them, and each round is timed by the
    thread's CPU time (:data:`CLOCK`), which excludes time the host gave
    to other processes.

    ``shapes`` restricts the run to a subset of single-core and/or
    multicore shape names (the ``--shapes`` CLI flag); the default runs
    everything.
    """
    if socket is None:
        socket = xeon20mb()
    known = f"{sorted(SHAPES)} + {sorted(MC_SHAPES)}"
    if shapes is None:
        sc_shapes = dict(SHAPES)
        mc_shapes = list(MC_SHAPES)
    else:
        unknown = [s for s in shapes if s not in SHAPES and s not in MC_SHAPES]
        if unknown:
            raise ValueError(
                f"unknown bench shape(s) {unknown!r}; known: {known}"
            )
        sc_shapes = {s: SHAPES[s] for s in shapes if s in SHAPES}
        mc_shapes = [s for s in shapes if s in MC_SHAPES]
        if not sc_shapes and not mc_shapes:
            # An empty selection (e.g. ``--shapes ""``) used to "run"
            # nothing and write an empty baseline; fail loudly instead.
            raise ValueError(f"no bench shapes selected; known: {known}")
    results: Dict[str, Dict[str, float]] = {}
    mc_results: Dict[str, Dict[str, float]] = {}
    kernels = _kernels()
    modes = ("sched-chunk", "sched-macro")
    # Tracing sits at (shape, kernel, round) granularity — never inside
    # the per-chunk loop — so an enabled tracer stays inside the <3%
    # overhead budget against BENCH_engine.json.
    with trace_span("bench.engine", cat="bench", n_accesses=n_accesses,
                    rounds=rounds):
        for shape, make_chunks in sc_shapes.items():
            chunks = make_chunks(n_accesses)
            n = sum(len(c) for c in chunks)
            best = dict.fromkeys(kernels, float("inf"))
            for rnd in range(rounds):
                for kname, make_kernel in kernels.items():
                    kernel = make_kernel(socket)
                    with trace_span(f"{shape}/{kname}", cat="bench.round",
                                    shape=shape, kernel=kname, round=rnd):
                        t0 = time.thread_time()
                        t = 0.0
                        for c in chunks:
                            t = kernel.run_chunk(0, c, t)
                        best[kname] = min(best[kname], time.thread_time() - t0)
            results[shape] = {kname: n / b for kname, b in best.items()}
        for shape in mc_shapes:
            best = dict.fromkeys(modes, float("inf"))
            total = dict.fromkeys(modes, 0)
            for rnd in range(rounds):
                for mode in modes:
                    sched = build_mc_scheduler(shape, socket)
                    with trace_span(f"{shape}/{mode}", cat="bench.round",
                                    shape=shape, mode=mode, round=rnd):
                        t0 = time.thread_time()
                        if mode == "sched-chunk":
                            outcome = run_chunk_at_a_time(sched, n_accesses)
                        else:
                            outcome = sched.run(main_access_budget=n_accesses)
                        best[mode] = min(best[mode], time.thread_time() - t0)
                    total[mode] = outcome.total_accesses
            mc_results[shape] = {mode: total[mode] / best[mode] for mode in modes}
        tracer = current_tracer()
        if tracer.enabled:
            tracer.record_counters("bench.engine", {
                f"{shape}.{kname}": rate
                for shape, by_kernel in
                list(results.items()) + list(mc_results.items())
                for kname, rate in by_kernel.items()
            })
    out: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "bench": "engine",
        "clock": CLOCK,
        "socket": socket.name,
        "n_accesses": n_accesses,
        "rounds": rounds,
        "machine": machine_fingerprint(),
        "accesses_per_sec": results,
        "speedup_arrays_vs_lists": {
            shape: rates["arrays"] / rates["lists"]
            for shape, rates in results.items() if "arrays" in rates
        },
        "multicore_accesses_per_sec": mc_results,
        "speedup_macro_vs_chunk": {
            shape: mc_results[shape]["sched-macro"] / mc_results[shape]["sched-chunk"]
            for shape in mc_results
        },
    }
    return out


def write_engine_bench(path: str, baseline: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _format_rate_table(
    title: str, rates: Dict[str, Dict[str, float]],
    ratio_label: str, ratios: Dict[str, float],
) -> List[str]:
    kernels = sorted(next(iter(rates.values())))
    width = max(len(s) for s in rates)
    lines = [title,
             "  " + "shape".ljust(width) + "".join(k.rjust(16) for k in kernels)
             + f"  {ratio_label}"]
    for shape, by_kernel in rates.items():
        row = "  " + shape.ljust(width)
        row += "".join(f"{by_kernel[k]:16,.0f}" for k in kernels)
        if shape in ratios:
            row += f"  {ratios[shape]:10.2f}x"
        lines.append(row)
    return lines


def format_engine_bench(baseline: Dict[str, object]) -> str:
    lines: List[str] = []
    rates = baseline["accesses_per_sec"]
    if rates:
        lines += _format_rate_table(
            "engine throughput (accesses/sec):", rates,
            "arrays/lists", baseline["speedup_arrays_vs_lists"],
        )
    mc_rates = baseline.get("multicore_accesses_per_sec", {})
    if mc_rates:
        lines += _format_rate_table(
            "multicore scheduler throughput (total accesses/sec):", mc_rates,
            "macro/chunk", baseline["speedup_macro_vs_chunk"],
        )
    return "\n".join(lines)


def compare_engine_bench(
    baseline: Dict[str, object], reference: Dict[str, object]
) -> str:
    """Informational comparison of a fresh run against a stored baseline.

    Never raises on regressions — machines differ; this exists so CI logs
    show the delta."""
    lines = ["change vs stored baseline (informational):"]
    for section in ("accesses_per_sec", "multicore_accesses_per_sec"):
        ref_rates = reference.get(section, {})
        for shape, by_kernel in baseline.get(section, {}).items():
            for kname, rate in by_kernel.items():
                ref = ref_rates.get(shape, {}).get(kname)
                if not ref:
                    lines.append(f"  {shape}/{kname}: no reference")
                    continue
                delta = 100.0 * (rate / ref - 1.0)
                lines.append(
                    f"  {shape}/{kname}: {rate:,.0f} vs {ref:,.0f} acc/s "
                    f"({delta:+.1f}%)"
                )
    return "\n".join(lines)
