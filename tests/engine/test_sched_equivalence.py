"""Scheduler equivalence: macro-stepped vs chunk-at-a-time.

The macro-stepped engine (C ``sched_step`` and its pure-Python mirror)
must be *bit-identical* to the chunk-at-a-time reference
(:func:`repro.bench.run_chunk_at_a_time`): every event counter equal as
integers, every clock and finish time equal as floats (hex-exact, not
approx). This is the contract that lets the fast path be the only path
— any simulation result is reproducible one chunk at a time.

The suite drives all six workloads (the two paper interference threads,
the probabilistic benchmark, STREAM triad, hot/cold probe and bubble),
and the application ranks and pointer chase, through warmup + measure
windows on both the array and list kernels, then covers the
macro-stepping edge cases: budget exhaustion mid-block, stream
exhaustion mid-block, window reopen, runaway guards and the roster
tie-break invariant. Test-only threads stage their ``chunks()`` through
the ``GeneratorThread`` helper.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import pytest

from repro.apps import CommEnv, LuleshProxy, MCBProxy
from repro.bench import run_chunk_at_a_time
from repro.cluster import CommModel, NoiseModel, ProcessMapping
from repro.config import NetworkConfig, tiny_socket, xeon20mb, xeon20mb_cluster
from repro.engine import (
    CoreState,
    FastSocket,
    Scheduler,
    arraypath,
    make_socket_kernel,
    scheduler,
)
from repro.engine.thread import ThreadContext
from repro.errors import SimulationError
from repro.mem import AddressSpace
from repro.mem.counters import COLUMN, COUNT_FIELDS, TIME_FIELDS
from repro.workloads import (
    BWThr,
    BubbleProbe,
    CSThr,
    HotColdProbe,
    PointerChase,
    StreamTriad,
)
from repro.workloads.distributions import UniformDist
from repro.workloads.synthetic import ProbabilisticBenchmark

from .gen_threads import FixedThread

#: Count columns whose sum is every access: each lands at one level.
LEVELS = [COLUMN.l1_hits, COLUMN.l2_hits, COLUMN.l3_hits,
          COLUMN.prefetch_hits, COLUMN.l3_misses]

#: Window runners: the chunk-at-a-time reference, the macro scheduler,
#: and the macro scheduler forced onto its pure-Python step even when
#: the C scheduler is compiled (``macro-py``), closing the three-way
#: triangle chunk == macro-C == macro-py in one process.
MODES = ("chunk", "macro", "macro-py")

_BIND_SCHED_STEP = arraypath.bind_sched_step


def window_runner(monkeypatch, mode):
    """The ``run(sched, main_access_budget=..., max_total_accesses=...)``
    callable for ``mode``."""
    if mode == "chunk":
        return run_chunk_at_a_time
    bind = _BIND_SCHED_STEP if mode == "macro" else (lambda fast, st: None)
    monkeypatch.setattr(arraypath, "bind_sched_step", bind)
    return Scheduler.run


def build_sched(threads_and_flags, socket=None, kernel="arrays", seed0=7):
    """Fresh kernel + scheduler over freshly started threads."""
    if socket is None:
        socket = tiny_socket(n_cores=8)
    if kernel == "lists":
        fast = FastSocket(socket)
    else:
        fast = make_socket_kernel(socket)
    space = AddressSpace(line_bytes=socket.line_bytes)
    cores = []
    for idx, (thread, is_main) in enumerate(threads_and_flags):
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


def fingerprint(sched, outcomes) -> Tuple:
    """Hex-exact snapshot of every per-core and per-window observable."""
    rows: List[Tuple] = []
    for cs in sched.cores:
        rows.append((
            cs.core_id, cs.accesses, cs.done, float(cs.clock_ns).hex(),
            None if cs.finish_ns is None else float(cs.finish_ns).hex(),
        ))
    for o in outcomes:
        rows.append((
            sorted((k, float(v).hex()) for k, v in o.main_finish_ns.items()),
            float(o.start_ns).hex(), float(o.end_ns).hex(), o.total_accesses,
        ))
    for cid, c in enumerate(sched.fast.counters):
        rows.append(
            tuple(getattr(c, f) for f in COUNT_FIELDS)
            + tuple(float(getattr(c, f)).hex() for f in TIME_FIELDS)
        )
    return tuple(rows)


def all_workloads():
    """All six workloads: four mains + the two paper interference threads."""
    return [
        (ProbabilisticBenchmark(UniformDist(), 4 * 1024 * 1024), True),
        (HotColdProbe(2 * 1024 * 1024, hot_fraction=0.9), True),
        (StreamTriad(array_bytes=8 * 1024 * 1024), True),
        (BubbleProbe(0.75), True),
        (CSThr(buffer_bytes=2 * 1024 * 1024), False),
        (BWThr(n_buffers=7), False),
    ]


def app_workloads():
    """Three finite mains (an MCB rank at p = 4 with communication and
    noise sigma = 0.2, a Lulesh rank, a pointer chase whose length is
    not a multiple of its quantum) beside CSThr and BWThr."""
    mapping = ProcessMapping(
        xeon20mb_cluster(n_nodes=32), n_ranks=24, procs_per_socket=4
    )
    env = CommEnv(
        comm_model=CommModel.for_network(NetworkConfig()),
        noise=NoiseModel(sigma=0.2),
    )
    return [
        (MCBProxy(n_particles=20_000, mapping=mapping, comm_env=env), True),
        (LuleshProxy(edge=22, n_iterations=1), True),
        (PointerChase(256 * 1024, n_accesses=5_000), True),
        (CSThr(buffer_bytes=2 * 1024 * 1024), False),
        (BWThr(n_buffers=7), False),
    ]


def run_windows(run, sched, budgets):
    """One window per budget; after each, every core's hits at each
    level plus its misses equal its accesses."""
    outcomes = []
    for i, b in enumerate(budgets):
        if i:
            sched.reopen_mains()
        outcomes.append(run(sched, main_access_budget=b))
        counts = sched.fast.counts
        assert (counts[:, LEVELS].sum(axis=1) == counts[:, COLUMN.accesses]).all()
    return outcomes


class TestModeEquivalence:
    @pytest.mark.parametrize("kernel", ["arrays", "lists"])
    def test_all_six_workloads_bit_identical(self, monkeypatch, kernel):
        """chunk == macro-C == macro-py over two windows, both kernels."""
        prints = {}
        for mode in MODES:
            run = window_runner(monkeypatch, mode)
            sched = build_sched(all_workloads(), socket=xeon20mb(), kernel=kernel)
            outcomes = run_windows(run, sched, [6_000, 8_000])
            prints[mode] = fingerprint(sched, outcomes)
        assert prints["macro"] == prints["chunk"]
        assert prints["macro-py"] == prints["chunk"]

    def test_exotic_shapes_bit_identical(self, monkeypatch):
        """Pure-hot probe (uniform-block path), zero-pressure bubble (no
        stream chunks) and a finite fill_block main that exhausts
        mid-window all agree across modes."""
        def shape():
            return [
                (HotColdProbe(1024 * 1024, hot_fraction=1.0), True),
                (BubbleProbe(0.0), True),
                (ProbabilisticBenchmark(
                    UniformDist(), 1024 * 1024, n_accesses=3_777), True),
                (CSThr(buffer_bytes=1024 * 1024), False),
            ]

        prints = {}
        for mode in MODES:
            run = window_runner(monkeypatch, mode)
            sched = build_sched(shape(), socket=xeon20mb())
            outcomes = run_windows(run, sched, [2_500, 3_000])
            prints[mode] = fingerprint(sched, outcomes)
        assert prints["macro"] == prints["chunk"]
        assert prints["macro-py"] == prints["chunk"]

    @pytest.mark.parametrize("kernel", ["arrays", "lists"])
    def test_app_ranks_and_pointer_chase_bit_identical(self, monkeypatch, kernel):
        """chunk == macro-C == macro-py for the application ranks and
        the pointer chase: a budgeted window that stops the mains
        mid-stream, then a window that runs them to completion."""
        prints = {}
        for mode in MODES:
            run = window_runner(monkeypatch, mode)
            sched = build_sched(app_workloads(), socket=xeon20mb(), kernel=kernel)
            outcomes = run_windows(run, sched, [12_000, None])
            assert all(c.done for c in sched.cores if c.is_main), mode
            prints[mode] = fingerprint(sched, outcomes)
        assert prints["macro"] == prints["chunk"]
        assert prints["macro-py"] == prints["chunk"]

    def test_generator_fallback_bit_identical(self, monkeypatch):
        """Threads that stage their ``chunks()`` one chunk at a time
        (the ``GeneratorThread`` test helper) match chunk-at-a-time
        exactly."""
        def shape():
            return [
                (FixedThread(n_chunks=None, size=10, ops=3, name="m"), True),
                (FixedThread(n_chunks=None, size=7, ops=1, name="i"), False),
            ]

        prints = {}
        for mode in MODES:
            run = window_runner(monkeypatch, mode)
            sched = build_sched(shape())
            outcomes = run_windows(run, sched, [500, 700])
            prints[mode] = fingerprint(sched, outcomes)
        assert prints["macro"] == prints["chunk"]
        assert prints["macro-py"] == prints["chunk"]

    def test_small_block_size_bit_identical(self, monkeypatch):
        """No result depends on the block size: the smallest block that
        still holds one workload cycle (8 chunks) matches chunk-at-a-time
        exactly."""
        ref_sched = build_sched(all_workloads(), socket=xeon20mb())
        ref = fingerprint(
            ref_sched, run_windows(run_chunk_at_a_time, ref_sched, [3_000])
        )
        monkeypatch.setattr(scheduler, "DEFAULT_CHUNK_CAP", 8)
        small = build_sched(all_workloads(), socket=xeon20mb())
        assert fingerprint(small, run_windows(Scheduler.run, small, [3_000])) == ref
        assert small._macro.q.chunk_cap == 8


class TestMacroEdgeCases:
    def test_budget_exhausts_mid_block(self, monkeypatch):
        """A window budget far smaller than one staged block stops at the
        same access count as the chunk path (chunk granularity)."""
        counts = {}
        for mode in MODES:
            run = window_runner(monkeypatch, mode)
            sched = build_sched([(FixedThread(n_chunks=None, size=10), True)])
            run(sched, main_access_budget=95)
            counts[mode] = sched.cores[0].accesses
        assert counts["chunk"] == 100  # 10 chunks of 10; >= budget after 10th
        assert counts["macro"] == counts["chunk"]
        assert counts["macro-py"] == counts["chunk"]

    def test_generator_exhausts_mid_block(self, monkeypatch):
        """A finite stream shorter than one block finishes with the
        exact chunk-path finish time."""
        prints = {}
        for mode in MODES:
            run = window_runner(monkeypatch, mode)
            sched = build_sched([(FixedThread(n_chunks=10, size=9), True)])
            outcomes = run_windows(run, sched, [None])
            assert sched.cores[0].accesses == 90
            prints[mode] = fingerprint(sched, outcomes)
        assert prints["macro"] == prints["chunk"]
        assert prints["macro-py"] == prints["chunk"]

    def test_reopen_after_exhaustion_completes_immediately(self, monkeypatch):
        """A main whose generator ran dry stays finished when the window
        reopens — same as calling next() on a spent generator."""
        for mode in MODES:
            run = window_runner(monkeypatch, mode)
            sched = build_sched([
                (FixedThread(n_chunks=5, size=10, name="spent"), True),
                (FixedThread(n_chunks=None, size=10, name="intf"), False),
            ])
            run(sched)
            first = sched.cores[0].accesses
            sched.reopen_mains()
            outcome = run(sched, main_access_budget=1_000)
            assert sched.cores[0].accesses == first == 50, mode
            assert sched.cores[0].done, mode
            assert 0 in outcome.main_finish_ns, mode

    def test_interference_runaway_names_offending_core(self, monkeypatch):
        """The pre-dispatch safety limit fires before the crossing chunk
        executes and the error names the interference core, in every
        scheduler mode."""
        for mode in MODES:
            run = window_runner(monkeypatch, mode)
            # Main's first chunk costs ~5000 ops, so after the t=0
            # tie-break the interference core (100-access chunks) is
            # always least-advanced and crosses max_total first.
            sched = build_sched([
                (FixedThread(n_chunks=None, size=1, ops=5000, name="main"), True),
                (FixedThread(n_chunks=None, size=100, ops=1, name="intf"), False),
            ])
            with pytest.raises(SimulationError, match=r"core 1 \('intf'\)"):
                run(sched, main_access_budget=10_000, max_total_accesses=250)
            assert sched.fast.counters[1].accesses <= 250, mode

    def test_runaway_total_never_overshoots(self, monkeypatch):
        for mode in MODES:
            run = window_runner(monkeypatch, mode)
            sched = build_sched([(FixedThread(n_chunks=None, size=10), True)])
            with pytest.raises(SimulationError, match="exceeded"):
                run(sched, main_access_budget=10_000, max_total_accesses=95)
            assert sched.cores[0].accesses <= 95, mode


class TestRosterTieBreak:
    def test_roster_sorted_by_core_id(self):
        socket = tiny_socket(n_cores=8)
        fast = FastSocket(socket)
        space = AddressSpace(line_bytes=socket.line_bytes)
        cores = []
        for cid in (5, 1, 3):
            t = FixedThread(n_chunks=None, size=10, name=f"t{cid}")
            t.start(ThreadContext(
                socket=socket, addrspace=space,
                rng=np.random.default_rng(cid), core_id=cid,
            ))
            cores.append(
                CoreState(core_id=cid, thread=t, gen=t.chunks(), is_main=True)
            )
        sched = Scheduler(fast, cores)
        assert [c.core_id for c in sched.cores] == [1, 3, 5]

    @pytest.mark.parametrize("mode", MODES)
    def test_construction_order_does_not_change_results(self, monkeypatch, mode):
        """The t=0 tie-break goes to the lowest core id regardless of the
        order CoreStates were handed to the Scheduler."""
        run = window_runner(monkeypatch, mode)

        def run_order(order):
            socket = tiny_socket(n_cores=8)
            fast = FastSocket(socket)
            space = AddressSpace(line_bytes=socket.line_bytes)
            cores = {}
            for cid in sorted(order):
                t = FixedThread(n_chunks=None, size=10 + cid, name=f"t{cid}")
                t.start(ThreadContext(
                    socket=socket, addrspace=space,
                    rng=np.random.default_rng(cid), core_id=cid,
                ))
                cores[cid] = CoreState(
                    core_id=cid, thread=t, gen=t.chunks(), is_main=True
                )
            sched = Scheduler(fast, [cores[c] for c in order])
            return fingerprint(sched, run_windows(run, sched, [400]))

        assert run_order([2, 0, 1]) == run_order([0, 1, 2])
