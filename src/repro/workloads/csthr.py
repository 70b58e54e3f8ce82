"""CSThr — the paper's cache-storage interference thread (Fig. 3).

``while (1) buf[random_position]++;`` over a buffer larger than the
private caches. Random order defeats the prefetcher and guarantees that
nearly every access misses L1/L2 and hits the shared L3, so the thread
(a) occupies a predictable slice of L3 capacity and keeps re-touching it
faster than victims can steal it back, while (b) consuming almost no
DRAM bandwidth — the orthogonality property Section III-D validates.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..engine.chunk import AccessChunk
from ..engine.thread import SimThread, ThreadContext

INT_BYTES = 4

#: ALU ops per iteration: random-position generation + increment.
DEFAULT_OVERHEAD_OPS = 6


class CSThr(SimThread):
    """Cache-storage interference thread.

    ``buffer_bytes`` is in paper units (the paper uses 4 MB against a
    20 MB L3, i.e. each CSThr pins roughly a fifth of the shared cache);
    it is scaled to simulator units at :meth:`start`. Runs forever.
    """

    def __init__(
        self,
        buffer_bytes: int = 4 * 1024 * 1024,
        overhead_ops: int = DEFAULT_OVERHEAD_OPS,
        quantum: int = 256,
        name: str = "CSThr",
    ):
        if buffer_bytes <= 0:
            raise ValueError("CSThr buffer must be positive")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.buffer_bytes = buffer_bytes
        self.overhead_ops = overhead_ops
        self.quantum = quantum
        self.name = name
        self.buffer = None
        self._ctx: Optional[ThreadContext] = None

    def start(self, ctx: ThreadContext) -> None:
        self._ctx = ctx
        sim_bytes = ctx.scaled_bytes(self.buffer_bytes)
        line = ctx.socket.line_bytes
        sim_bytes = max(sim_bytes - sim_bytes % line, line)
        self.buffer = ctx.addrspace.alloc(
            sim_bytes, elem_bytes=INT_BYTES, label=self.name
        )

    def footprint_lines(self) -> int:
        assert self.buffer is not None
        return self.buffer.n_lines

    def chunks(self) -> Iterator[AccessChunk]:
        assert self._ctx is not None and self.buffer is not None
        rng = self._ctx.rng
        n = self.buffer.n_elems
        q = self.quantum
        ops = self.overhead_ops
        buf = self.buffer
        while True:
            idx = rng.integers(0, n, size=q)
            yield AccessChunk.from_indices(
                buf, idx, is_write=True, ops_per_access=ops, prefetchable=False
            )

    def fill_block(self, writer) -> None:
        """Stage a block of random-touch chunks with one RNG draw.

        ``Generator.integers`` fills its output from one uninterrupted
        bit stream, so a single ``B*q`` draw is element-for-element the
        concatenation of ``B`` per-chunk draws — the generator path and
        this one consume the RNG identically.
        """
        assert self._ctx is not None and self.buffer is not None
        q = self.quantum
        n_chunks = min(writer.free_chunks, max(1, writer.free_lines // q))
        idx = self._ctx.rng.integers(0, self.buffer.n_elems, size=n_chunks * q)
        writer.push_uniform(
            self.buffer.lines_of_indices(idx),
            q,
            is_write=True,
            ops_per_access=self.overhead_ops,
            prefetchable=False,
        )

    def describe(self) -> str:
        return f"{self.name}: {self.buffer_bytes} paper-bytes, uniform random RMW"
