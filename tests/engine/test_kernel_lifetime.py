"""A simulator's kernel is freed by reference counting when it is dropped.

No kernel object may sit in a reference cycle: a campaign builds one
simulator per point, and a kernel kept alive until the cyclic garbage
collector runs multiplies the peak resident set by the number of
finished points still waiting for it. The tests disable the cyclic
collector, so only reference counting can free anything.
"""

from __future__ import annotations

import gc
import weakref

from repro.config import tiny_node, tiny_socket
from repro.engine import NodeSimulator, SocketSimulator
from repro.units import KiB
from repro.workloads import BWThr, CSThr, ProbabilisticBenchmark, UniformDist


def probe():
    return ProbabilisticBenchmark(UniformDist(), 64 * KiB, ops_per_access=1)


def _socket_refs():
    sim = SocketSimulator(tiny_socket(), seed=3)
    sim.add_thread(probe(), main=True)
    sim.add_thread(CSThr(buffer_bytes=8 * KiB))
    sim.add_thread(BWThr(buffer_bytes=32 * KiB))
    sim.warmup(accesses=2000)
    sim.measure(accesses=2000)
    return [weakref.ref(sim.fast), weakref.ref(sim._scheduler._macro)]


def _node_refs():
    sim = NodeSimulator(tiny_node(), seed=3)
    sim.add_thread(probe(), socket=0, main=True)
    sim.add_thread(probe(), socket=1, main=True, home_socket=0)
    sim.add_thread(CSThr(buffer_bytes=8 * KiB), socket=1)
    sim.warmup(accesses=2000)
    sim.measure(accesses=2000)
    return [weakref.ref(k) for k in sim.fast.kernels] + [
        weakref.ref(sim.fast), weakref.ref(sim._scheduler._macro)
    ]


def _freed_without_gc(build):
    """Run ``build`` with the cyclic collector off; for each weakref it
    returns, whether its object is gone once ``build``'s frame is."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        refs = build()
        return [r() is None for r in refs]
    finally:
        if was_enabled:
            gc.enable()


def test_socket_simulator_kernel_freed_on_drop():
    freed = _freed_without_gc(_socket_refs)
    assert all(freed), freed


def test_node_simulator_kernels_freed_on_drop():
    freed = _freed_without_gc(_node_refs)
    assert all(freed), freed
