"""Failure injection: the engine must fail loudly and cleanly."""

from typing import Iterator

import numpy as np
import pytest

from repro.config import tiny_socket
from repro.engine import AccessChunk, SocketSimulator
from repro.engine.thread import ThreadContext
from repro.errors import SimulationError

from .gen_threads import GeneratorThread


class ExplodingThread(GeneratorThread):
    """Yields a few chunks, then raises from inside its generator."""

    name = "exploder"

    def __init__(self, after_chunks=3):
        self.after = after_chunks
        self.base = 0

    def start(self, ctx: ThreadContext) -> None:
        self.base = ctx.addrspace.alloc(1024, elem_bytes=4).base_line

    def chunks(self) -> Iterator[AccessChunk]:
        for i in range(self.after):
            yield AccessChunk(lines=[self.base + i])
        raise RuntimeError("injected generator failure")


class BrokenStartThread(GeneratorThread):
    name = "broken-start"

    def start(self, ctx: ThreadContext) -> None:
        raise OSError("injected start failure")

    def chunks(self):  # pragma: no cover - never reached
        yield AccessChunk(lines=[0])


class EmptyChunkThread(GeneratorThread):
    """A thread whose generator immediately yields an empty chunk —
    interpreted as completion, never as a hang."""

    name = "empty"

    def start(self, ctx: ThreadContext) -> None:
        pass

    def chunks(self) -> Iterator[AccessChunk]:
        yield AccessChunk(lines=[])
        yield AccessChunk(lines=[1])  # must never be reached


class TestGeneratorFailures:
    def test_exception_propagates_with_context(self, tiny):
        sim = SocketSimulator(tiny)
        sim.add_thread(ExplodingThread(), main=True)
        with pytest.raises(RuntimeError, match="injected generator failure"):
            sim.measure(accesses=10_000)

    def test_start_failure_propagates(self, tiny):
        sim = SocketSimulator(tiny)
        sim.add_thread(BrokenStartThread(), main=True)
        with pytest.raises(OSError, match="injected start failure"):
            sim.measure(accesses=10)

    def test_empty_chunk_terminates_thread(self, tiny):
        sim = SocketSimulator(tiny)
        core = sim.add_thread(EmptyChunkThread(), main=True)
        result = sim.measure(accesses=10_000)
        assert result.counters_of(core).accesses == 0

    def test_interference_explosion_also_propagates(self, tiny):
        """An interference thread failing mid-measurement must not be
        swallowed (silent loss of interference would corrupt results)."""
        from repro.workloads import CSThr

        sim = SocketSimulator(tiny)
        sim.add_thread(CSThr(buffer_bytes=4096), main=True)
        sim.add_thread(ExplodingThread())
        with pytest.raises(RuntimeError, match="injected"):
            sim.measure(accesses=50_000)


class TestResourceExhaustion:
    def test_address_space_exhaustion_is_reported(self, tiny):
        from repro.errors import AllocationError
        from repro.mem import AddressSpace

        sim = SocketSimulator(tiny)
        sim.addrspace = AddressSpace(line_bytes=64, capacity_bytes=2048)

        class Hungry(GeneratorThread):
            name = "hungry"

            def start(self, ctx):
                ctx.addrspace.alloc(1 << 20)

            def chunks(self):  # pragma: no cover
                yield AccessChunk(lines=[0])

        sim.add_thread(Hungry(), main=True)
        with pytest.raises(AllocationError, match="exhausted"):
            sim.measure(accesses=10)

    def test_runaway_interference_only_budget_guard(self, tiny):
        """If mains stall (zero-progress misuse), the global access guard
        trips instead of looping forever."""
        from repro.engine.scheduler import Scheduler

        class Forever(GeneratorThread):
            name = "forever"

            def __init__(self):
                self.base = 0

            def start(self, ctx):
                self.base = ctx.addrspace.alloc(1024, elem_bytes=4).base_line

            def chunks(self):
                while True:
                    yield AccessChunk(lines=[self.base])

        sim = SocketSimulator(tiny)
        sim.add_thread(Forever(), main=True)
        sim._start()
        with pytest.raises(SimulationError, match="exceeded"):
            sim._scheduler.run(main_access_budget=10**9, max_total_accesses=5_000)
