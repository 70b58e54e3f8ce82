"""Randomized node differential suite: the compiled node step against its
two references, plus two conservation laws.

Hypothesis draws 2- and 3-socket ``tiny_node`` configurations,
first-touch or interleave placement with per-thread ``home_socket``
overrides, prefetch on or off, and thread mixes of BWThr, CSThr,
ProbabilisticBenchmark, StreamTriad, PointerChase and an MCB rank whose
process mapping spans sockets. Each case runs a warm-up window and then measure windows under
three runners, which must agree exactly: the compiled node step
(``macro``), the pure-Python macro-step (``macro-py``, which dispatches
every chunk through ``NodeKernel.run_chunk``) and the chunk-at-a-time
reference (``chunk``). Counters compare as integers, times by
``float.hex``, and so do the inter-socket link's bytes and busy time,
every socket arbiter's registers and the remote-fill carries.

After every window two conservation laws hold:

- every remote fill crossed the inter-socket link once:
  ``Σ remote_fills × line_bytes == xlink fill_bytes``;
- every fill loaded its own socket's DRAM link, and every remote fill
  its home socket's as well: ``Σ link fill_bytes == line_bytes ×
  (Σ l3_misses + prefetch_fills + remote_fills)``.

Without the C kernel ``macro`` and ``macro-py`` are the same Python
path, and the suite checks it against the chunk reference.
"""

from __future__ import annotations

import dataclasses
from typing import List, NamedTuple, Optional

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps import CommEnv, MCBProxy
from repro.bench import run_chunk_at_a_time
from repro.cluster import CommModel, NoiseModel, ProcessMapping
from repro.config import NetworkConfig, tiny_node, xeon20mb_cluster
from repro.engine import NodeSimulator, Scheduler, _ckernel, arraypath
from repro.engine.node import NodeKernel
from repro.mem.addrspace import PLACEMENT_POLICIES
from repro.mem.bandwidth import BandwidthArbiter
from repro.mem.counters import COUNT_FIELDS, TIME_FIELDS
from repro.units import KiB
from repro.workloads import (
    BWThr, CSThr, PointerChase, StreamTriad, UniformDist,
)
from repro.workloads.synthetic import ProbabilisticBenchmark

MODES = ("macro", "macro-py", "chunk")

#: Mains that end on their own; the only mains of a run-to-completion
#: window (an unbounded main would run into the 500M-access guard).
FINITE_MAINS = ("probe", "chase")
KINDS = FINITE_MAINS + ("bwthr", "csthr", "stream", "rank")

CORES_PER_SOCKET = 3


class Spec(NamedTuple):
    kind: str
    socket: int
    home: Optional[int]
    main: bool
    kib: int
    n: int


class Case(NamedTuple):
    n_sockets: int
    placement: str
    prefetch: bool
    threads: List[Spec]
    #: Window budgets: the warm-up, then the measure windows (None = run
    #: the mains to completion, only ever last).
    windows: List[Optional[int]]
    seed: int


def make_thread(spec: Spec, rank: int):
    if spec.kind == "bwthr":
        return BWThr(buffer_bytes=spec.kib * KiB, n_buffers=3, quantum=64)
    if spec.kind == "csthr":
        return CSThr(buffer_bytes=spec.kib * KiB)
    if spec.kind == "probe":
        return ProbabilisticBenchmark(UniformDist(), spec.kib * KiB,
                                      n_accesses=spec.n)
    if spec.kind == "stream":
        return StreamTriad(array_bytes=spec.kib * KiB)
    if spec.kind == "chase":
        return PointerChase(spec.kib * KiB, n_accesses=spec.n)
    assert spec.kind == "rank"
    # Two ranks, one per socket of a one-node job: a socket-spanning
    # mapping, so the rank stages intra-node comm buffers.
    mapping = ProcessMapping(xeon20mb_cluster(n_nodes=1), n_ranks=2,
                             procs_per_socket=1)
    env = CommEnv(comm_model=CommModel.for_network(NetworkConfig()),
                  noise=NoiseModel(sigma=0.2))
    return MCBProxy(n_particles=2_000, n_ranks=2, rank=rank % 2,
                    n_iterations=1, mapping=mapping, comm_env=env)


@st.composite
def node_cases(draw) -> Case:
    n_sockets = draw(st.sampled_from((2, 3)))
    measure = draw(st.lists(st.integers(300, 3_000), min_size=1, max_size=2))
    if draw(st.booleans()):
        measure.append(None)
    windows = [draw(st.integers(200, 2_000))] + measure
    to_completion = None in windows
    used = [0] * n_sockets
    threads = []
    for i in range(draw(st.integers(1, 5))):
        main = i == 0 or draw(st.booleans())
        kinds = FINITE_MAINS if main and to_completion else KINDS
        socket = draw(st.integers(0, n_sockets - 1))
        while used[socket] == CORES_PER_SOCKET:
            socket = (socket + 1) % n_sockets
        used[socket] += 1
        threads.append(Spec(
            kind=draw(st.sampled_from(kinds)),
            socket=socket,
            home=draw(st.one_of(st.none(), st.integers(0, n_sockets - 1))),
            main=main,
            kib=draw(st.sampled_from((4, 12, 40))),
            n=draw(st.integers(500, 4_000)),
        ))
    return Case(
        n_sockets=n_sockets,
        placement=draw(st.sampled_from(PLACEMENT_POLICIES)),
        prefetch=draw(st.booleans()),
        threads=threads,
        windows=windows,
        seed=draw(st.integers(0, 2**16)),
    )


def build(case: Case) -> NodeSimulator:
    node = tiny_node(n_sockets=case.n_sockets, n_cores=CORES_PER_SOCKET)
    socket = node.socket
    socket = dataclasses.replace(socket, prefetch=dataclasses.replace(
        socket.prefetch, enabled=case.prefetch))
    node = dataclasses.replace(node, socket=socket)
    sim = NodeSimulator(node, seed=case.seed, placement=case.placement)
    for rank, spec in enumerate(case.threads):
        sim.add_thread(make_thread(spec, rank), socket=spec.socket,
                       main=spec.main, home_socket=spec.home)
    return sim


def registers(arb) -> tuple:
    """An arbiter's controller state and counters, floats as hex."""
    if isinstance(arb, BandwidthArbiter):
        floats = (arb._hwm_ns, arb._window_start_ns, arb._rho,
                  arb._rho_smooth, arb._delay_ns, arb._knee_ns, arb.busy_ns)
        ints = (arb._window_count, arb._window_demand, arb.fill_bytes,
                arb.writeback_bytes)
    else:
        floats, ints = arb._a.tolist(), arb._ai.tolist()
    return tuple(float(f).hex() for f in floats) + tuple(int(i) for i in ints)


def fingerprint(sim: NodeSimulator, res) -> tuple:
    rows = [
        tuple(int(getattr(c, f)) for f in COUNT_FIELDS)
        + tuple(float(getattr(c, f)).hex() for f in TIME_FIELDS)
        for c in res.socket.cores
    ]
    rows.append(tuple(sorted(
        (k, float(v).hex()) for k, v in res.main_finish_ns.items())))
    rows.append((float(res.elapsed_ns).hex(), float(res.makespan_ns).hex()))
    rows.extend(
        (sc.link_fill_bytes, sc.link_writeback_bytes,
         float(sc.link_busy_ns).hex())
        for sc in res.per_socket
    )
    rows.append((res.xlink_fill_bytes, float(res.xlink_busy_ns).hex()))
    rows.extend(registers(k.arbiter) for k in sim.fast.kernels)
    rows.append(registers(sim.fast.xlink))
    rows.append(tuple(float(x).hex() for x in sim.fast.remote_carry))
    return tuple(rows)


def assert_conservation(res) -> None:
    line = res.line_bytes
    cores = res.socket.cores
    remote_fills = sum(c.remote_fills for c in cores)
    assert remote_fills * line == res.xlink_fill_bytes
    fills = sum(c.l3_misses + c.prefetch_fills + c.remote_fills for c in cores)
    assert sum(sc.link_fill_bytes for sc in res.per_socket) == line * fills


def run_case(case: Case, mode: str) -> list:
    """Every window's fingerprint under ``mode``; the laws after each."""
    with pytest.MonkeyPatch.context() as mp:
        if mode == "chunk":
            mp.setattr(Scheduler, "run", run_chunk_at_a_time)
        elif mode == "macro-py":
            mp.setattr(arraypath, "bind_sched_step", lambda fast, st: None)
        sim = build(case)
        prints = []
        for budget in case.windows:
            # The warm-up is a window like the others: measure() resets
            # the counters first, so its laws can be checked too.
            res = sim.measure(budget)
            assert_conservation(res)
            prints.append(fingerprint(sim, res))
        if mode == "macro" and _ckernel.available():
            assert sim._scheduler._macro.binding is not None
        return prints


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(node_cases())
def test_compiled_node_step_matches_both_references(case):
    prints = {mode: run_case(case, mode) for mode in MODES}
    assert prints["macro"] == prints["chunk"]
    assert prints["macro-py"] == prints["chunk"]


@pytest.mark.skipif(not _ckernel.available(), reason="needs the C kernel")
def test_two_socket_node_binds_the_compiled_step(monkeypatch):
    """A 2-socket window runs in one C loop: no chunk is dispatched
    through the Python node step."""
    def python_step(*args, **kwargs):
        raise AssertionError("chunk dispatched through NodeKernel.run_chunk")

    monkeypatch.setattr(NodeKernel, "run_chunk", python_step)
    sim = NodeSimulator(tiny_node(n_sockets=2), seed=4)
    core = sim.add_thread(
        ProbabilisticBenchmark(UniformDist(), 64 * KiB, n_accesses=4_000),
        socket=0, main=True, home_socket=1)
    sim.add_thread(BWThr(buffer_bytes=16 * KiB, n_buffers=3), socket=1)
    sim.warmup(1_000)
    res = sim.measure(None)
    assert sim._scheduler._macro.binding is not None
    assert res.counters_of(core).remote_fills > 0
    assert_conservation(res)
