"""Pointer-chase latency probe.

A dependent chain of loads over a random cyclic permutation: each load's
address comes from the previous load, so misses cannot overlap (chunks
carry ``serialize=True``) and the measured time-per-access is the true
round-trip latency of whatever level the working set lands in.

This is the measurement style of Yotov et al.'s X-Ray (paper refs
[23][24]) and the library uses it both as an example application and as a
self-check that the simulator's latency ladder (L1 < L2 < L3 < DRAM) is
observable from software, the way real microbenchmarks observe it.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..engine.chunk import AccessChunk
from ..engine.thread import SimThread, ThreadContext

PTR_BYTES = 8

#: Per-hop ALU cost (address unpack + loop) — small by design so the
#: probe's time is dominated by memory latency.
HOP_OPS = 2


class PointerChase(SimThread):
    """Chase a random cycle over ``buffer_bytes`` of pointers.

    One element per cache line (the classic padding trick) so every hop
    touches a distinct line and spatial locality cannot help.

    ``buffer_bytes`` is interpreted in *simulator* units by default
    (``scale_with_machine=False``) because latency probes target a given
    level of the simulated hierarchy directly.
    """

    def __init__(
        self,
        buffer_bytes: int,
        n_accesses: Optional[int] = None,
        scale_with_machine: bool = False,
        quantum: int = 256,
        name: str = "chase",
    ):
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        self.buffer_bytes = buffer_bytes
        self.n_accesses = n_accesses
        self.scale_with_machine = scale_with_machine
        self.quantum = quantum
        self.name = name
        self.buffer = None
        self._order: Optional[np.ndarray] = None
        self._ctx: Optional[ThreadContext] = None

    def start(self, ctx: ThreadContext) -> None:
        self._ctx = ctx
        nbytes = (
            ctx.scaled_bytes(self.buffer_bytes)
            if self.scale_with_machine
            else self.buffer_bytes
        )
        line = ctx.socket.line_bytes
        nbytes = max(nbytes - nbytes % line, 2 * line)
        self.buffer = ctx.addrspace.alloc(nbytes, elem_bytes=line, label=self.name)
        # A single random cycle over all lines: Sattolo's algorithm via a
        # shuffled visit order (visiting a fixed random permutation in
        # sequence is an identical address stream to chasing the cycle).
        order = np.arange(self.buffer.n_lines, dtype=np.int64)
        ctx.rng.shuffle(order)
        self._order = order
        # fill_block cursor (chunks() keeps its own generator-local
        # copy; the scheduler pins one path per run).
        self._fb_lines = order + self.buffer.base_line
        self._fb_pos = 0
        self._fb_remaining = self.n_accesses

    def chunks(self) -> Iterator[AccessChunk]:
        assert self._ctx is not None and self.buffer is not None
        assert self._order is not None
        base = self.buffer.base_line
        lines_all = self._order + base  # int64 ndarray, handed to chunks as-is
        n = len(lines_all)
        q = self.quantum
        remaining = self.n_accesses
        pos = 0
        while remaining is None or remaining > 0:
            size = q if remaining is None else min(q, remaining)
            chunk_lines = lines_all.take(
                np.arange(pos, pos + size), mode="wrap"
            )
            pos = (pos + size) % n
            yield AccessChunk(
                lines=chunk_lines,
                is_write=False,
                ops_per_access=HOP_OPS,
                serialize=True,
                prefetchable=False,
            )
            if remaining is not None:
                remaining -= size

    def fill_block(self, writer) -> None:
        """Stage a block of the chase with one gather: the block's hops
        continue around the cycle where the last block stopped, and a
        finite chase ends on the same short chunk as :meth:`chunks`."""
        assert self._ctx is not None and self.buffer is not None
        q = self.quantum
        size = q * min(writer.free_chunks, max(1, writer.free_lines // q))
        if self._fb_remaining is not None:
            size = min(size, self._fb_remaining)
            self._fb_remaining -= size
        if size <= 0:
            return
        pos = self._fb_pos
        lines = self._fb_lines.take(np.arange(pos, pos + size), mode="wrap")
        self._fb_pos = (pos + size) % len(self._fb_lines)
        meta = dict(ops_per_access=HOP_OPS, serialize=True, prefetchable=False)
        whole = size - size % q
        if whole:
            writer.push_uniform(lines[:whole], q, **meta)
        if whole < size:
            writer.push(lines[whole:], **meta)

    def describe(self) -> str:
        return f"{self.name}: dependent chain over {self.buffer_bytes} sim-bytes"
