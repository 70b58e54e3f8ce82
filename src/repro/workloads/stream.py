"""STREAM-style triad workload, used to calibrate peak memory bandwidth.

The paper quotes "17 GB/s of bandwidth between the L3 cache and memory
according to the STREAM benchmark"; the calibration experiment runs this
workload on every core of the simulated socket and reports the aggregate
fill bandwidth, which is how the `dram_bandwidth_Bps` configuration is
tied to an observable.

Triad is ``a[i] = b[i] + q * c[i]`` over arrays much larger than the L3.
The access stream is modelled per line: for each line index the thread
reads the ``b`` and ``c`` lines and writes the ``a`` line, with all three
buffers on distinct prefetch streams (hardware tracks them separately).
Element-level accesses within a line are L1 hits and are folded into
``ops_per_access`` — modelling every one of the 8 doubles individually
would only add simulation work without changing any measured quantity.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from ..engine.chunk import AccessChunk
from ..engine.thread import SimThread, ThreadContext
from ..mem.addrspace import Buffer

DOUBLE_BYTES = 8

#: ALU work per *line* of each array: 8 doubles' worth of FMA + index
#: arithmetic, spread over the three per-line accesses.
OPS_PER_LINE_ACCESS = 8


class StreamTriad(SimThread):
    """One core's STREAM triad over three private arrays.

    ``array_bytes`` is in paper units; default 4x the (unscaled) L3 so
    the working set never fits and the measurement reflects pure memory
    bandwidth, exactly as STREAM prescribes.
    """

    def __init__(
        self,
        array_bytes: int = 80 * 1024 * 1024,
        quantum: int = 128,
        name: str = "stream",
    ):
        if array_bytes <= 0:
            raise ValueError("array_bytes must be positive")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.array_bytes = array_bytes
        self.quantum = quantum
        self.name = name
        self.arrays: List[Buffer] = []
        self._ctx: Optional[ThreadContext] = None

    def start(self, ctx: ThreadContext) -> None:
        self._ctx = ctx
        sim_bytes = ctx.scaled_bytes(self.array_bytes)
        line = ctx.socket.line_bytes
        sim_bytes = max(sim_bytes - sim_bytes % line, 4 * line)
        self.arrays = [
            ctx.addrspace.alloc(sim_bytes, elem_bytes=DOUBLE_BYTES, label=f"{self.name}.{tag}")
            for tag in ("a", "b", "c")
        ]
        # fill_block sweep position (chunks() keeps its own
        # generator-local copy; the scheduler pins one path per run).
        self._fb_pos = 0

    def chunks(self) -> Iterator[AccessChunk]:
        assert self._ctx is not None and self.arrays
        a, b, c = self.arrays
        n_lines = min(x.n_lines for x in self.arrays)
        q = self.quantum
        pos = 0
        while True:
            end = pos + q
            idx = np.arange(pos, end, dtype=np.int64)
            if end >= n_lines:
                idx %= n_lines
            # b and c reads, then the a write, per line-run; one chunk per
            # array keeps stream ids clean for the prefetcher.
            yield AccessChunk(
                lines=b.base_line + idx,
                is_write=False,
                ops_per_access=OPS_PER_LINE_ACCESS,
                stream_id=1,
            )
            yield AccessChunk(
                lines=c.base_line + idx,
                is_write=False,
                ops_per_access=OPS_PER_LINE_ACCESS,
                stream_id=2,
            )
            yield AccessChunk(
                lines=a.base_line + idx,
                is_write=True,
                ops_per_access=OPS_PER_LINE_ACCESS,
                stream_id=0,
            )
            pos = end % n_lines

    def fill_block(self, writer) -> None:
        """Stage whole triad cycles (b-read, c-read, a-write) with one
        broadcast line matrix per block and per-chunk metadata arrays
        carrying the rotating stream ids."""
        assert self._ctx is not None and self.arrays
        a, b, c = self.arrays
        n_lines = min(x.n_lines for x in self.arrays)
        q = self.quantum
        # The scheduler guarantees blocks hold at least 8 chunks, so a
        # fresh block always fits >= 2 whole cycles.
        cycles = min(
            writer.free_chunks // 3, max(1, writer.free_lines // (3 * q))
        )
        j = np.arange(cycles, dtype=np.int64)
        # Same wrap behaviour as the generator: within a cycle the index
        # run wraps at most once, and positions stay reduced mod n_lines.
        idx = (self._fb_pos + j[:, None] * q + np.arange(q, dtype=np.int64)) % n_lines
        bases = np.array([b.base_line, c.base_line, a.base_line], dtype=np.int64)
        lines = bases[None, :, None] + idx[:, None, :]
        writer.push_uniform(
            lines.ravel(),
            q,
            is_write=np.tile(np.array([0, 0, 1], dtype=np.int64), cycles),
            ops_per_access=OPS_PER_LINE_ACCESS,
            stream_id=np.tile(np.array([1, 2, 0], dtype=np.int64), cycles),
        )
        self._fb_pos = int((self._fb_pos + cycles * q) % n_lines)

    def describe(self) -> str:
        return f"{self.name}: triad over 3 x {self.array_bytes} paper-bytes"
