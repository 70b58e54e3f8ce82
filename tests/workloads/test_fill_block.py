"""Every workload's ``fill_block`` stages exactly its ``chunks()`` stream.

The scheduler runs only ``fill_block``; ``chunks()`` is the reference
that the chunk-at-a-time loop and the trace recorder read. For every
concrete :class:`~repro.engine.thread.SimThread` in ``repro.workloads``
and ``repro.apps`` (found the way ``benchmarks/perf/ledger.py`` finds
them, so a new workload without a case here fails), the staged blocks
must hash the same as the generator's chunks — lines, write flag, ops,
stream id, serialize, ``extra_ns`` by ``float.hex`` and prefetchable —
and leave the thread's RNG in the same state. Infinite threads are
compared over a fixed number of blocks; finite ones to exhaustion. The
blocks are staged under the scheduler's budgets (``QueueWriter.begin``:
a first block of ``FIRST_BLOCK_LINES`` lines, doubling to the arena
row), so no workload's stream may depend on how much a block may hold.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
from typing import Callable, Dict, List

import numpy as np
import pytest

from repro.apps import CommEnv, LuleshProxy, MCBProxy, RankApp, SpMVProxy
from repro.cluster import CommModel, NoiseModel, ProcessMapping
from repro.config import NetworkConfig, xeon20mb, xeon20mb_cluster
from repro.core.parallel import PointRunner
from repro.core.sweep import ActiveMeasurement
from repro.engine.blockq import FIRST_BLOCK_LINES, BlockQueues, QueueWriter
from repro.engine.scheduler import Scheduler
from repro.engine.thread import SimThread, ThreadContext
from repro.errors import ConfigError
from repro.mem import AddressSpace
from repro.units import KiB, MiB
from repro.workloads import (
    BubbleProbe,
    BWThr,
    CSThr,
    ExponentialDist,
    HotColdProbe,
    NormalDist,
    PointerChase,
    ProbabilisticBenchmark,
    StreamTriad,
    UniformDist,
)

THREAD_MODULES = ("repro.workloads", "repro.apps")

#: Blocks staged from an infinite thread before the streams are
#: compared, and the most a finite one may take to end.
INFINITE_BLOCKS = 5
FINITE_BLOCKS = 10_000


def concrete_threads() -> List[type]:
    """Every non-abstract SimThread subclass defined in THREAD_MODULES."""
    for module in THREAD_MODULES:
        importlib.import_module(module)
    out: List[type] = []
    todo = list(SimThread.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if (
            cls.__module__.startswith(THREAD_MODULES)
            and not inspect.isabstract(cls)
            and cls not in out
        ):
            out.append(cls)
    return sorted(out, key=lambda c: c.__name__)


def comm_env(sigma: float) -> CommEnv:
    return CommEnv(
        comm_model=CommModel.for_network(NetworkConfig()),
        noise=NoiseModel(sigma=sigma),
    )


def app_cases(make: Callable[..., SimThread], n_ranks: int) -> List[Callable]:
    """An application rank without communication, then with it at one
    and four ranks per socket, each with noise off and on."""
    cluster = xeon20mb_cluster(n_nodes=32)
    cases = [lambda: make(n_ranks=n_ranks)]
    for p in (1, 4):
        mapping = ProcessMapping(cluster, n_ranks=n_ranks, procs_per_socket=p)
        for sigma in (0.0, 0.2):
            cases.append(
                lambda m=mapping, s=sigma: make(
                    n_ranks=n_ranks, mapping=m, comm_env=comm_env(s)
                )
            )
    return cases


#: Thread factories per class. ``n_accesses`` values are deliberately not
#: multiples of the quantum, and the MCB census gives its cross-section
#: phase (a rejection-sampled distribution) whole chunks plus a tail.
#: No Table II distribution ever leaves a batched ``sample_block`` row
#: short, so two wide Normals force its per-chunk fallback: Norm_0.5
#: keeps about 20% of its draws (every block falls back), Norm_2 about
#: 68% (at quantum 16 some blocks batch and some fall back).
CASES: Dict[type, List[Callable[[], SimThread]]] = {
    BubbleProbe: [lambda: BubbleProbe(0.75), lambda: BubbleProbe(0.0)],
    BWThr: [lambda: BWThr(n_buffers=3)],
    CSThr: [lambda: CSThr(buffer_bytes=1 * MiB)],
    HotColdProbe: [
        lambda: HotColdProbe(512 * KiB, hot_fraction=0.9),
        lambda: HotColdProbe(512 * KiB, hot_fraction=1.0),
    ],
    PointerChase: [
        lambda: PointerChase(64 * KiB),
        lambda: PointerChase(64 * KiB, n_accesses=3_000),
        lambda: PointerChase(16 * KiB, n_accesses=700, quantum=64),
    ],
    ProbabilisticBenchmark: [
        lambda: ProbabilisticBenchmark(UniformDist(), 1 * MiB),
        lambda: ProbabilisticBenchmark(NormalDist(4), 1 * MiB, n_accesses=5_000),
        lambda: ProbabilisticBenchmark(ExponentialDist(8), 1 * MiB, n_accesses=3_000),
        lambda: ProbabilisticBenchmark(NormalDist(0.5), 1 * MiB),
        lambda: ProbabilisticBenchmark(
            NormalDist(2), 1 * MiB, n_accesses=2_000, quantum=16
        ),
    ],
    StreamTriad: [lambda: StreamTriad(array_bytes=4 * MiB)],
    MCBProxy: app_cases(lambda **kw: MCBProxy(n_particles=100_000, **kw), 24),
    LuleshProxy: app_cases(lambda **kw: LuleshProxy(edge=36, **kw), 64),
    SpMVProxy: app_cases(lambda **kw: SpMVProxy(rows=50_000, **kw), 16),
}


def started(make: Callable[[], SimThread], seed: int) -> SimThread:
    thread = make()
    socket = xeon20mb()
    thread.start(ThreadContext(
        socket=socket,
        addrspace=AddressSpace(line_bytes=socket.line_bytes),
        rng=np.random.default_rng(seed),
        core_id=0,
    ))
    return thread


def chunk_digest(h, lines, is_write, ops, stream_id, serialize, extra_ns, pf) -> None:
    h.update(np.ascontiguousarray(lines, dtype=np.int64).tobytes())
    h.update(repr((
        bool(is_write), int(ops), int(stream_id), bool(serialize),
        float(extra_ns).hex(), bool(pf),
    )).encode())


def staged_stream(thread: SimThread, chunk_cap: int, max_blocks: int):
    """sha256 of up to ``max_blocks`` blocks that ``fill_block`` stages,
    their chunk count, and whether the stream ended (an empty block).
    Each block gets the scheduler's line budget from ``begin``: the first
    ``FIRST_BLOCK_LINES``, then twice the last, up to the arena row."""
    h = hashlib.sha256()
    q = BlockQueues(1, chunk_cap=chunk_cap)
    w = QueueWriter(q, 0)
    n_chunks = 0
    budget = min(FIRST_BLOCK_LINES, q.line_cap)
    for _ in range(max_blocks):
        w.begin()
        assert w.free_lines == budget, "not the scheduler's block budget"
        thread.fill_block(w)
        budget = min(2 * budget, q.line_cap)
        k = int(q.count[0])
        if k == 0:
            return h.hexdigest(), n_chunks, True
        for c in range(k):
            off, n = int(q.off[0, c]), int(q.clen[0, c])
            chunk_digest(
                h, q.lines[0, off:off + n], q.cwrite[0, c], q.cops[0, c],
                q.csid[0, c], q.cser[0, c], q.cextra[0, c], q.cpf[0, c],
            )
        n_chunks += k
    return h.hexdigest(), n_chunks, False


def generated_stream(thread: SimThread, max_chunks):
    """sha256 of the first ``max_chunks`` chunks of ``chunks()`` (all of
    them when None), and their count."""
    h = hashlib.sha256()
    n_chunks = 0
    # islice stops without resuming the generator past the last chunk,
    # which would make the next chunk's draws.
    for chunk in itertools.islice(thread.chunks(), max_chunks):
        chunk_digest(
            h, chunk.lines, chunk.is_write, chunk.ops_per_access,
            chunk.stream_id, chunk.serialize, chunk.extra_ns, chunk.prefetchable,
        )
        n_chunks += 1
    return h.hexdigest(), n_chunks


def is_finite(thread: SimThread) -> bool:
    return (
        isinstance(thread, RankApp)
        or getattr(thread, "n_accesses", None) is not None
    )


@pytest.mark.parametrize("chunk_cap", [64, 8])
@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cls", concrete_threads(), ids=lambda c: c.__name__)
def test_fill_block_stages_the_chunks_stream(cls, seed, chunk_cap):
    assert cls in CASES, f"{cls.__name__} has no fill_block contract case here"
    for i, make in enumerate(CASES[cls]):
        fast = started(make, seed)
        ref = started(make, seed)
        finite = is_finite(fast)
        got, n, ended = staged_stream(
            fast, chunk_cap, FINITE_BLOCKS if finite else INFINITE_BLOCKS
        )
        want, n_ref = generated_stream(ref, None if finite else n)
        assert n > 0, f"case {i}: nothing staged"
        assert ended == finite, f"case {i}: staged stream ended={ended}"
        assert (got, n) == (want, n_ref), f"case {i}: streams differ"
        assert (
            fast._ctx.rng.bit_generator.state == ref._ctx.rng.bit_generator.state
        ), f"case {i}: RNG consumed differently"


#: The nine points of a short sweep: cs k = 0..4, then bw k = 0..3.
NINE_POINTS = [("cs", k) for k in range(5)] + [("bw", k) for k in range(4)]


def test_short_windows_stage_about_what_they_run(monkeypatch):
    """A nine-point sweep of short windows (512 + 1,024 main accesses
    at quantum 16, the shape of many small campaigns): per thread, the
    lines staged are at most twice the accesses simulated plus one first
    block, by exact counts. A full 64-chunk first block would stage
    16,384 lines per interference thread for the ~2,000 it runs."""
    staged: Dict[int, List] = {}
    refill = Scheduler._refill

    def counting_refill(self, st, slot):
        refill(self, st, slot)
        cs = self.cores[slot]
        entry = staged.setdefault(id(cs), [cs, 0, 0])
        entry[1] += int(st.q.used_lines[slot])
        entry[2] += 1

    monkeypatch.setattr(Scheduler, "_refill", counting_refill)
    am = ActiveMeasurement(
        xeon20mb(),
        functools.partial(ProbabilisticBenchmark, UniformDist(), 8 * MiB,
                          quantum=16),
        seed=3, warmup_accesses=512, measure_accesses=1024,
        runner=PointRunner(backend="serial", retries=0),
    )
    for kind, k in NINE_POINTS:
        am.run_point(kind, k)
    assert len(staged) == sum(1 + k for _, k in NINE_POINTS)
    for cs, lines, refills in staged.values():
        assert lines <= 2 * cs.accesses + FIRST_BLOCK_LINES, (
            f"{cs.thread.name}: {lines} lines staged in {refills} blocks "
            f"for {cs.accesses} accesses"
        )
    # Some thread staged more than one block, so the doubling was run.
    assert max(refills for _, _, refills in staged.values()) > 1


def test_every_case_names_a_discovered_thread():
    """A stale entry would silently check nothing."""
    assert set(CASES) == set(concrete_threads())


#: Every workload that takes a chunk length, and the error type its
#: other constructor checks raise.
QUANTUM_TAKERS = {
    BubbleProbe: (lambda q: BubbleProbe(0.5, quantum=q), ConfigError),
    BWThr: (lambda q: BWThr(quantum=q), ValueError),
    CSThr: (lambda q: CSThr(quantum=q), ValueError),
    HotColdProbe: (lambda q: HotColdProbe(512 * KiB, quantum=q), ConfigError),
    PointerChase: (lambda q: PointerChase(64 * KiB, quantum=q), ValueError),
    ProbabilisticBenchmark: (
        lambda q: ProbabilisticBenchmark(UniformDist(), 1 * MiB, quantum=q),
        ValueError,
    ),
    StreamTriad: (lambda q: StreamTriad(quantum=q), ValueError),
}


@pytest.mark.parametrize("quantum", [0, -1])
@pytest.mark.parametrize("cls", list(QUANTUM_TAKERS), ids=lambda c: c.__name__)
def test_quantum_must_be_positive(cls, quantum):
    """A chunk length below one is refused at construction, not by a
    ``ZeroDivisionError`` or a queue error at the first refill."""
    make, error = QUANTUM_TAKERS[cls]
    with pytest.raises(error, match="quantum must be positive"):
        make(quantum)
    assert make(1).quantum == 1
