"""Simulated-thread protocol.

A :class:`SimThread` is a workload pinned to one simulated core: it
allocates buffers in :meth:`start`, and then describes its access stream
twice. :meth:`chunks` yields :class:`~repro.engine.chunk.AccessChunk`
objects one at a time: the reference semantics, read by the
chunk-at-a-time loop (:func:`repro.bench.run_chunk_at_a_time`) and the
trace recorder. :meth:`fill_block` stages the same stream a block at a
time into the scheduler's queues: the only path the scheduler runs.
Interference threads run forever; benchmark/application threads end
when their work is done (an exhausted generator, or a block of zero
chunks, is thread completion).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..config import SocketConfig
from ..mem.addrspace import AddressSpace
from .chunk import AccessChunk


@dataclass
class ThreadContext:
    """Everything a workload needs to set itself up on a machine.

    ``rng`` is private to the thread (independent, deterministically
    seeded streams per core) so that runs are reproducible regardless of
    interleaving.
    """

    socket: SocketConfig
    addrspace: AddressSpace
    rng: np.random.Generator
    core_id: int
    #: Socket the core belongs to on a multi-socket node (0 on plain
    #: single-socket simulations). ``core_id`` is node-global there.
    socket_id: int = 0

    def scaled_bytes(self, physical_bytes: int) -> int:
        """Scale a paper-units size down to simulator units (pass-through
        when the machine is unscaled)."""
        if self.socket.scale == 1:
            return physical_bytes
        return self.socket.scaled_bytes(physical_bytes)


class SimThread(ABC):
    """A workload bound to one core of the simulated socket."""

    #: Human-readable name used in reports ("BWThr[2]", "mcb.rank3").
    name: str = "thread"

    #: Chunk length this thread emits; the scheduler's interleave quantum.
    quantum: int = 256

    @abstractmethod
    def start(self, ctx: ThreadContext) -> None:
        """Allocate buffers / initialise state. Called exactly once."""

    @abstractmethod
    def chunks(self) -> Iterator[AccessChunk]:
        """Yield access chunks in program order. A finite iterator means
        the thread terminates; infinite means it runs until the scheduler
        stops it (interference threads)."""

    @abstractmethod
    def fill_block(self, writer) -> None:
        """Stage the next block of the :meth:`chunks` stream.

        Stage up to ``writer.free_chunks`` chunks — ideally with a
        single numpy call via
        :meth:`~repro.engine.blockq.QueueWriter.push_uniform` — into the
        thread's per-core queue, continuing where the previous block
        stopped. Must produce *exactly the same chunk stream* as
        :meth:`chunks` (same lines, same RNG consumption, same
        metadata): ``tests/workloads/test_fill_block.py`` holds every
        workload to that by sha256, and the scheduler-equivalence suite
        holds the scheduler bit-identical to the chunk-at-a-time
        reference. Staging zero chunks means the workload is finished
        (the equivalent of ``StopIteration``).
        """

    def describe(self) -> str:
        """One-line description for experiment logs."""
        return self.name
