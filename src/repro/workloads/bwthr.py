"""BWThr — the paper's memory-bandwidth interference thread (Fig. 2).

The original C code allocates ``numBufs`` (44) buffers of ``long long``
and sweeps all of them with a large-prime stride wrapped in an opaque
``identity()`` call, so that (a) essentially every access misses the
whole hierarchy, (b) the constant stride lets the hardware prefetcher
keep bandwidth high, and (c) the compiler cannot elide anything.

This model keeps those three properties:

- the combined footprint (44 x 520 KB ~ 22.9 MB against a 20 MB L3)
  exceeds the shared cache, and buffers are visited round-robin so the
  reuse distance of every line is the full footprint -> every access is
  a demand L3 miss or a prefetch hit, never a capacity hit;
- within a buffer, lines are visited with a constant line stride that is
  coprime to the buffer's line count (full coverage; the stride breaks
  only at the wrap, costing a short prefetcher re-detection — same as
  the modulo wrap in the original);
- the ``identity()`` call + modulo arithmetic of the original is charged
  as ``overhead_ops`` ALU operations per access; the default is
  calibrated so one uncontended BWThr draws ~2.8 GB/s (Section III-A),
  which the calibration bench verifies.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

import numpy as np

from ..engine.chunk import AccessChunk
from ..engine.thread import SimThread, ThreadContext
from ..mem.addrspace import Buffer

LONG_LONG_BYTES = 8

#: Line stride within a buffer; prime so it is coprime to any
#: power-of-two-ish line count and covers every line each sweep.
LINE_STRIDE = 7

#: ALU ops charged per access for the original's identity() call, modulo,
#: index arithmetic and RMW. Calibrated against Section III-A's 2.8 GB/s.
DEFAULT_OVERHEAD_OPS = 39


class BWThr(SimThread):
    """Bandwidth interference thread.

    Parameters are in paper units; buffers are scaled to the simulated
    machine at :meth:`start`. Runs forever (interference thread).
    """

    def __init__(
        self,
        buffer_bytes: int = 520 * 1024,
        n_buffers: int = 44,
        overhead_ops: int = DEFAULT_OVERHEAD_OPS,
        quantum: int = 128,
        name: str = "BWThr",
    ):
        if buffer_bytes <= 0 or n_buffers <= 0:
            raise ValueError("BWThr buffers must be positive")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.buffer_bytes = buffer_bytes
        self.n_buffers = n_buffers
        self.overhead_ops = overhead_ops
        self.quantum = quantum
        self.name = name
        self.buffers: List[Buffer] = []
        self._ctx: Optional[ThreadContext] = None

    def start(self, ctx: ThreadContext) -> None:
        self._ctx = ctx
        sim_bytes = ctx.scaled_bytes(self.buffer_bytes)
        line = ctx.socket.line_bytes
        sim_bytes = max(sim_bytes - sim_bytes % line, line * (LINE_STRIDE + 1))
        self.buffers = [
            ctx.addrspace.alloc(
                sim_bytes, elem_bytes=LONG_LONG_BYTES, label=f"{self.name}.buf{i}"
            )
            for i in range(self.n_buffers)
        ]
        # fill_block sweep state (chunks() keeps its own generator-local
        # copy; the scheduler pins one path per run).
        self._fb_pos = np.zeros(self.n_buffers, dtype=np.int64)
        self._fb_which = 0
        self._fb_bases = np.array([b.base_line for b in self.buffers], dtype=np.int64)
        self._fb_counts = np.array([b.n_lines for b in self.buffers], dtype=np.int64)

    def footprint_lines(self) -> int:
        """Total distinct cache lines the thread cycles through."""
        return sum(b.n_lines for b in self.buffers)

    def chunks(self) -> Iterator[AccessChunk]:
        assert self._ctx is not None and self.buffers
        positions = [0] * self.n_buffers
        bases = [b.base_line for b in self.buffers]
        counts = [b.n_lines for b in self.buffers]
        q = self.quantum
        ops = self.overhead_ops
        which = 0
        step = LINE_STRIDE * np.arange(self.quantum, dtype=np.int64)
        while True:
            base = bases[which]
            n_lines = counts[which]
            pos = positions[which]
            # Equivalent to the original per-access walk: the stride is
            # smaller than the buffer, so each step wraps at most once.
            lines = base + (pos + step) % n_lines
            positions[which] = (pos + LINE_STRIDE * q) % n_lines
            yield AccessChunk(
                lines=lines, is_write=True, ops_per_access=ops, stream_id=which
            )
            which += 1
            if which == self.n_buffers:
                which = 0

    def fill_block(self, writer) -> None:
        """Stage a whole round-robin sweep segment in one numpy call.

        Block chunk ``j`` visits buffer ``(which + j) % n_buffers``; its
        prior visits within the block number ``j // n_buffers``, so each
        chunk's sweep offset is closed-form and the full ``(B, q)`` line
        matrix broadcasts in one expression — no per-chunk generator
        resume, ndarray or modulo loop.
        """
        assert self._ctx is not None and self.buffers
        q = self.quantum
        nb = self.n_buffers
        n_chunks = min(writer.free_chunks, max(1, writer.free_lines // q))
        j = np.arange(n_chunks, dtype=np.int64)
        which = (self._fb_which + j) % nb
        stride_per_visit = LINE_STRIDE * q
        start = self._fb_pos[which] + (j // nb) * stride_per_visit
        step = LINE_STRIDE * np.arange(q, dtype=np.int64)
        counts = self._fb_counts[which]
        lines = self._fb_bases[which][:, None] + (
            start[:, None] + step[None, :]
        ) % counts[:, None]
        writer.push_uniform(
            lines.ravel(),
            q,
            is_write=True,
            ops_per_access=self.overhead_ops,
            stream_id=which,
        )
        # Advance per-buffer positions by the number of visits each
        # buffer received, and the round-robin cursor by the block.
        n_visits = np.bincount(which, minlength=nb)
        self._fb_pos = (
            self._fb_pos + n_visits * stride_per_visit
        ) % self._fb_counts
        self._fb_which = int((self._fb_which + n_chunks) % nb)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.n_buffers} x {self.buffer_bytes} paper-bytes, "
            f"stride {LINE_STRIDE} lines, {self.overhead_ops} ops/access"
        )
