"""Hot/cold working-set workload with a *known* ground truth.

``HotColdProbe`` spends ``hot_fraction`` of its accesses on a hot buffer
of exactly ``hot_bytes`` (touched uniformly at random, CSThr-style) and
the remainder streaming through a large cold region. Its productive
cache need is therefore known by construction: the hot buffer, and
nothing else.

This is the instrument-calibration workload the paper lacks: running
Active Measurement against probes with known working sets turns "does
the method work?" into a measurable detection error
(:mod:`repro.experiments.detection`).
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..engine.chunk import AccessChunk
from ..engine.thread import SimThread, ThreadContext
from ..errors import ConfigError

INT_BYTES = 4

#: Cold region size, paper units (always far beyond the L3).
COLD_BYTES = 64 * 1024 * 1024


class HotColdProbe(SimThread):
    """A workload whose true capacity use is ``hot_bytes``.

    Parameters
    ----------
    hot_bytes:
        Size of the hot working set, paper units.
    hot_fraction:
        Fraction of accesses directed at the hot buffer. High values
        (default 0.9) make the hot set strongly defended, matching the
        regime in which the paper's methodology is validated.
    ops_per_access:
        Compute between accesses.
    """

    def __init__(
        self,
        hot_bytes: int,
        hot_fraction: float = 0.9,
        ops_per_access: int = 4,
        quantum: int = 256,
        name: Optional[str] = None,
    ):
        if hot_bytes <= 0:
            raise ConfigError("hot_bytes must be positive")
        if not 0.0 < hot_fraction <= 1.0:
            raise ConfigError("hot_fraction must be in (0, 1]")
        if quantum <= 0:
            raise ConfigError("quantum must be positive")
        self.hot_bytes = hot_bytes
        self.hot_fraction = hot_fraction
        self.ops_per_access = ops_per_access
        self.quantum = quantum
        self.name = name or f"hotcold[{hot_bytes >> 20}MB]"
        self.hot = None
        self.cold = None
        self._ctx: Optional[ThreadContext] = None

    def start(self, ctx: ThreadContext) -> None:
        self._ctx = ctx
        line = ctx.socket.line_bytes
        hot_sim = max(ctx.scaled_bytes(self.hot_bytes) // line * line, line)
        self.hot = ctx.addrspace.alloc(hot_sim, elem_bytes=INT_BYTES, label=f"{self.name}.hot")
        cold_sim = ctx.scaled_bytes(COLD_BYTES) // line * line
        self.cold = ctx.addrspace.alloc(cold_sim, elem_bytes=INT_BYTES, label=f"{self.name}.cold")
        # fill_block stream position (chunks() keeps its own
        # generator-local copy; the scheduler pins one path per run).
        self._fb_pos = 0

    def chunks(self) -> Iterator[AccessChunk]:
        assert self._ctx is not None
        rng = self._ctx.rng
        q = self.quantum
        hot_n = self.hot.n_elems
        cold_lines = self.cold.n_lines
        cold_base = self.cold.base_line
        # Alternate hot and cold chunks so each quantum preserves the
        # configured mix: hot chunks of q accesses, cold chunks sized to
        # keep the overall hot fraction.
        cold_q = max(1, round(q * (1.0 - self.hot_fraction) / self.hot_fraction))
        pos = 0
        while True:
            idx = rng.integers(0, hot_n, size=q)
            chunk = AccessChunk.from_indices(
                self.hot, idx, is_write=True, ops_per_access=self.ops_per_access
            )
            chunk.prefetchable = False
            yield chunk
            if self.hot_fraction < 1.0:
                lines = [cold_base + ((pos + i) % cold_lines) for i in range(cold_q)]
                pos = (pos + cold_q) % cold_lines
                yield AccessChunk(
                    lines=lines,
                    is_write=False,
                    ops_per_access=self.ops_per_access,
                    stream_id=1,
                )

    def fill_block(self, writer) -> None:
        """Stage hot/cold cycles with one batched RNG draw.

        The hot indices for every cycle in the block come from a single
        ``integers`` call (bit-stream-identical to per-cycle draws); the
        cold stream is a closed-form wrap. Hot and cold chunks differ in
        length, so they are pushed per cycle rather than via one
        ``push_uniform``.
        """
        assert self._ctx is not None
        import numpy as np

        q = self.quantum
        hot_n = self.hot.n_elems
        if self.hot_fraction >= 1.0:
            n_chunks = min(writer.free_chunks, max(1, writer.free_lines // q))
            idx = self._ctx.rng.integers(0, hot_n, size=n_chunks * q)
            writer.push_uniform(
                self.hot.lines_of_indices(idx),
                q,
                is_write=True,
                ops_per_access=self.ops_per_access,
                prefetchable=False,
            )
            return
        cold_q = max(1, round(q * (1.0 - self.hot_fraction) / self.hot_fraction))
        cold_lines = self.cold.n_lines
        cold_base = self.cold.base_line
        cycles = min(
            writer.free_chunks // 2,
            max(1, writer.free_lines // (q + cold_q)),
        )
        hot_idx = self._ctx.rng.integers(0, hot_n, size=(cycles, q))
        hot_lines = self.hot.lines_of_indices(hot_idx.ravel()).reshape(cycles, q)
        span = np.arange(cold_q, dtype=np.int64)
        for j in range(cycles):
            writer.push(
                hot_lines[j],
                is_write=True,
                ops_per_access=self.ops_per_access,
                prefetchable=False,
            )
            writer.push(
                cold_base + (self._fb_pos + span) % cold_lines,
                is_write=False,
                ops_per_access=self.ops_per_access,
                stream_id=1,
            )
            self._fb_pos = (self._fb_pos + cold_q) % cold_lines

    def describe(self) -> str:
        return (
            f"{self.name}: {self.hot_bytes >> 20} MB hot set, "
            f"{self.hot_fraction * 100:.0f}% hot accesses"
        )
