"""Every workload's ``fill_block`` stages exactly its ``chunks()`` stream.

The scheduler runs only ``fill_block``; ``chunks()`` is the reference
that the chunk-at-a-time loop and the trace recorder read. For every
concrete :class:`~repro.engine.thread.SimThread` in ``repro.workloads``
and ``repro.apps`` (found the way ``benchmarks/perf/ledger.py`` finds
them, so a new workload without a case here fails), the staged blocks
must hash the same as the generator's chunks — lines, write flag, ops,
stream id, serialize, ``extra_ns`` by ``float.hex`` and prefetchable —
and leave the thread's RNG in the same state. Infinite threads are
compared over a fixed number of blocks; finite ones to exhaustion.
"""

from __future__ import annotations

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
from repro.engine.blockq import BlockQueues, QueueWriter
from repro.engine.thread import SimThread, ThreadContext
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
    their chunk count, and whether the stream ended (an empty block)."""
    h = hashlib.sha256()
    q = BlockQueues(1, chunk_cap=chunk_cap)
    w = QueueWriter(q, 0)
    n_chunks = 0
    for _ in range(max_blocks):
        w.begin()
        thread.fill_block(w)
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


def test_every_case_names_a_discovered_thread():
    """A stale entry would silently check nothing."""
    assert set(CASES) == set(concrete_threads())
