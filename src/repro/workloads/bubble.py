"""The "bubble" probe of Mars et al. (Bubble-Up, paper ref [14]).

A single tunable-pressure kernel that mixes cache-resident random
touches with streaming traffic: turning the knob inflates *aggregate*
memory-subsystem pressure. The paper's Section V argument against it is
that a bubble "is not able to decompose such degradation into several
factors" — one knob moves storage and bandwidth pressure together, so a
victim's sensitivity curve against the bubble cannot say *which*
resource is exhausted.

This implementation exists to make that comparison concrete: the
``related_work`` ablation runs two victims with opposite resource
appetites against the bubble (indistinguishable curves) and against the
paper's BWThr/CSThr pair (cleanly separated), quantifying the value of
the 2-D measurement.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from ..engine.chunk import AccessChunk
from ..engine.thread import SimThread, ThreadContext
from ..errors import ConfigError
from ..units import MiB

INT_BYTES = 4

#: Default per-thread resident buffer at pressure 1.0, paper units.
#: Bubble-Up replicates its bubble on every colocated core, so one
#: bubble's resident share is roughly an L3 way-group, not the whole
#: cache.
DEFAULT_RESIDENT_BYTES = 6 * MiB


class BubbleProbe(SimThread):
    """One bubble thread with a scalar ``pressure`` knob in [0, 1].

    ``pressure`` scales both facets simultaneously, as in Bubble-Up:

    - a CSThr-like random-touch buffer of ``pressure * resident_bytes``
      — storage pressure;
    - a BWThr-like streaming pass over a buffer larger than the L3,
      interleaved in proportion to ``pressure`` — bandwidth pressure.
    """

    def __init__(
        self,
        pressure: float,
        resident_bytes: int = DEFAULT_RESIDENT_BYTES,
        quantum: int = 128,
        name: Optional[str] = None,
    ):
        if not 0.0 <= pressure <= 1.0:
            raise ConfigError("bubble pressure must be in [0, 1]")
        if resident_bytes <= 0:
            raise ConfigError("resident_bytes must be positive")
        if quantum <= 0:
            raise ConfigError("quantum must be positive")
        self.pressure = pressure
        self.resident_bytes = resident_bytes
        self.quantum = quantum
        self.name = name or f"bubble[{pressure:.2f}]"
        self.resident = None
        self.stream = None
        self._ctx: Optional[ThreadContext] = None

    def start(self, ctx: ThreadContext) -> None:
        self._ctx = ctx
        l3_paper = ctx.socket.unscaled_bytes(ctx.socket.l3.capacity_bytes)
        resident_paper = max(
            int(self.pressure * self.resident_bytes), 64 * 1024
        )
        line = ctx.socket.line_bytes
        res_bytes = max(
            ctx.scaled_bytes(resident_paper) // line * line, line
        )
        self.resident = ctx.addrspace.alloc(
            res_bytes, elem_bytes=INT_BYTES, label=f"{self.name}.resident"
        )
        stream_paper = int(1.5 * l3_paper)
        self.stream = ctx.addrspace.alloc(
            ctx.scaled_bytes(stream_paper) // line * line,
            elem_bytes=INT_BYTES,
            label=f"{self.name}.stream",
        )
        # fill_block stream position (chunks() keeps its own
        # generator-local copy; the scheduler pins one path per run).
        self._fb_pos = 0

    def chunks(self) -> Iterator[AccessChunk]:
        assert self._ctx is not None
        rng = self._ctx.rng
        q = self.quantum
        res = self.resident
        stream = self.stream
        n_res = res.n_elems
        stream_lines = stream.n_lines
        pos = 0
        # Streaming chunks per resident chunk scales with pressure: at
        # zero pressure the bubble idles over its (tiny) resident set.
        stream_share = max(0, round(self.pressure * 4))
        while True:
            idx = rng.integers(0, n_res, size=q)
            chunk = AccessChunk.from_indices(res, idx, is_write=True, ops_per_access=6)
            chunk.prefetchable = False
            yield chunk
            for _ in range(stream_share):
                lines = [
                    stream.base_line + ((pos + i) % stream_lines) for i in range(q)
                ]
                pos = (pos + q) % stream_lines
                yield AccessChunk(
                    lines=lines, is_write=False, ops_per_access=4, stream_id=1
                )

    def fill_block(self, writer) -> None:
        """Stage whole bubble cycles (resident + stream chunks) with one
        batched RNG draw and a broadcast stream-line matrix.

        Every chunk in a cycle has length ``q``, so the whole block is a
        single ``push_uniform`` with tiled per-chunk metadata.
        """
        assert self._ctx is not None
        q = self.quantum
        n_res = self.resident.n_elems
        stream_lines = self.stream.n_lines
        stream_share = max(0, round(self.pressure * 4))
        cpc = 1 + stream_share
        # The scheduler guarantees blocks hold at least 8 chunks, so a
        # fresh block always fits at least one whole cycle.
        cycles = min(
            writer.free_chunks // cpc, max(1, writer.free_lines // (cpc * q))
        )
        idx = self._ctx.rng.integers(0, n_res, size=(cycles, q))
        res_lines = self.resident.lines_of_indices(idx.ravel()).reshape(cycles, q)
        lines = np.empty((cycles, cpc, q), dtype=np.int64)
        lines[:, 0, :] = res_lines
        if stream_share:
            j = np.arange(cycles * stream_share, dtype=np.int64)
            lines[:, 1:, :] = (
                self.stream.base_line
                + (
                    self._fb_pos
                    + j[:, None] * q
                    + np.arange(q, dtype=np.int64)[None, :]
                )
                % stream_lines
            ).reshape(cycles, stream_share, q)
        tile = lambda vals: np.tile(np.array(vals, dtype=np.int64), cycles)
        writer.push_uniform(
            lines.ravel(),
            q,
            is_write=tile([1] + [0] * stream_share),
            ops_per_access=tile([6] + [4] * stream_share),
            stream_id=tile([0] + [1] * stream_share),
            prefetchable=tile([0] + [1] * stream_share),
        )
        self._fb_pos = int(
            (self._fb_pos + cycles * stream_share * q) % stream_lines
        )

    def describe(self) -> str:
        return f"{self.name}: pressure {self.pressure:.2f}"
