"""Single-socket Node vs SocketSimulator equivalence.

The node layer's gate (ISSUE: DESIGN decision 12): a 1-socket
:class:`~repro.engine.node.NodeSimulator` must be *bit-identical* to
:class:`~repro.engine.socket_sim.SocketSimulator` — every event counter
equal as an integer, every time equal as a float (hex-exact) — under
the chunk-at-a-time reference and both macro-step paths. The facade
dispatch, the placement machinery and the remote-fill accounting must
all collapse to exact no-ops when there is only one socket.

Runnable under ``REPRO_NO_CKERNEL=1`` (CI's no-ckernel leg) — the modes
then exercise the list kernel and the pure-Python macro-step.
"""

from __future__ import annotations

import pytest

from repro.bench import run_chunk_at_a_time
from repro.config import NodeConfig, tiny_socket
from repro.engine import NodeSimulator, Scheduler, SocketSimulator, arraypath
from repro.mem.counters import COUNT_FIELDS, TIME_FIELDS
from repro.units import GiB
from repro.workloads import BWThr, CSThr, HotColdProbe, StreamTriad, UniformDist
from repro.workloads.synthetic import ProbabilisticBenchmark


#: Same triangle as test_sched_equivalence: chunk == macro-C == macro-py.
#: ``chunk`` runs both simulators' windows through the chunk-at-a-time
#: reference; ``macro`` binds the compiled step to both (the node's is
#: the 1-socket pass-through); ``macro-py`` unbinds it from both, so each
#: runs the pure-Python macro-step.
MODES = ("chunk", "macro", "macro-py")


def _set_mode(monkeypatch, mode):
    if mode == "chunk":
        monkeypatch.setattr(Scheduler, "run", run_chunk_at_a_time)
    elif mode == "macro-py":
        monkeypatch.setattr(arraypath, "bind_sched_step", lambda fast, st: None)


def one_socket_node(socket) -> NodeConfig:
    return NodeConfig(
        socket=socket,
        n_sockets=1,
        dram_bytes=GiB,
        remote_penalty_ns=60.0,
        link_bandwidth_Bps=1e9,
        page_bytes=1024,
    )


def roster(sim):
    """Mixed roster: finite main + infinite interference threads."""
    sim.add_thread(
        ProbabilisticBenchmark(UniformDist(), 48 * 1024, n_accesses=12_000),
        main=True,
    )
    sim.add_thread(StreamTriad(array_bytes=8 * 1024), main=True)
    sim.add_thread(BWThr(buffer_bytes=16 * 1024, n_buffers=3))
    sim.add_thread(CSThr(buffer_bytes=8 * 1024))


def fingerprint(res):
    """Counters as ints, times as exact hex floats."""
    rows = []
    for core in sorted(res.core_counters):
        c = res.core_counters[core]
        rows.append(
            (core,)
            + tuple(int(getattr(c, f)) for f in COUNT_FIELDS)
            + tuple(float(getattr(c, f)).hex() for f in TIME_FIELDS)
        )
    rows.append(
        tuple(sorted((k, float(v).hex()) for k, v in res.main_finish_ns.items()))
    )
    rows.append((float(res.elapsed_ns).hex(), float(res.makespan_ns).hex()))
    return rows


@pytest.mark.parametrize("mode", MODES)
class TestOneSocketNodeBitIdentical:
    def test_measure_window(self, monkeypatch, mode):
        _set_mode(monkeypatch, mode)
        socket = tiny_socket(n_cores=4)

        ref = SocketSimulator(socket, seed=11)
        roster(ref)
        ref.warmup(5_000)
        res_ref = ref.measure(8_000)

        sim = NodeSimulator(one_socket_node(socket), seed=11)
        roster(sim)
        sim.warmup(5_000)
        res_node = sim.measure(8_000)

        assert fingerprint(res_ref) == fingerprint(res_node)

    def test_run_to_completion(self, monkeypatch, mode):
        _set_mode(monkeypatch, mode)
        socket = tiny_socket(n_cores=4)

        def finite():
            return ProbabilisticBenchmark(
                UniformDist(), 32 * 1024, n_accesses=9_000
            )

        ref = SocketSimulator(socket, seed=3)
        ref.add_thread(finite(), main=True)
        ref.add_thread(CSThr(buffer_bytes=4 * 1024))
        res_ref = ref.run_to_completion()

        sim = NodeSimulator(one_socket_node(socket), seed=3)
        sim.add_thread(finite(), main=True)
        sim.add_thread(CSThr(buffer_bytes=4 * 1024))
        res_node = sim.run_to_completion()

        assert fingerprint(res_ref) == fingerprint(res_node)

    def test_no_remote_traffic_on_one_socket(self, monkeypatch, mode):
        _set_mode(monkeypatch, mode)
        sim = NodeSimulator(one_socket_node(tiny_socket(4)), seed=5)
        roster(sim)
        sim.warmup(3_000)
        res = sim.measure(5_000)
        assert res.xlink_fill_bytes == 0
        assert res.xlink_busy_ns == 0.0
        for c in res.core_counters.values():
            assert c.remote_accesses == 0
            assert c.remote_fills == 0
            assert c.remote_ns == 0.0


def test_per_socket_breakdown_matches_aggregate_one_socket():
    sim = NodeSimulator(one_socket_node(tiny_socket(4)), seed=2)
    roster(sim)
    sim.warmup(3_000)
    res = sim.measure(5_000)
    assert len(res.per_socket) == 1
    sc = res.per_socket[0]
    assert sc.link_fill_bytes == res.socket.link_fill_bytes
    assert sc.link_busy_ns == pytest.approx(res.socket.link_busy_ns)
