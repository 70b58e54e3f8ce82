"""The paper's synthetic probabilistic benchmark (Fig. 4).

``for i in range(N_ACCESS): value = buf[X()]; <compute>`` — a loop that
draws a buffer index from a Table II distribution, reads it, and performs
1/10/100 integer additions. These benchmarks have a closed-form expected
hit rate (Eq. 4), which is what makes them the validation vehicle for
CSThr in Section III-C.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..engine.chunk import AccessChunk
from ..engine.thread import SimThread, ThreadContext
from ..models.ehr import EHRModel
from .distributions import IndexDistribution

#: The paper's benchmark buffers hold C ``int``s.
INT_BYTES = 4

#: Loop overhead (index draw, bounds math) charged on top of the paper's
#: nominal 1/10/100 additions; a handful of ALU ops per iteration.
LOOP_OVERHEAD_OPS = 4


class ProbabilisticBenchmark(SimThread):
    """A probe thread whose L3 behaviour Eq. 4 predicts.

    Parameters
    ----------
    distribution:
        A Table II :class:`IndexDistribution`.
    buffer_bytes:
        Buffer size in *paper units*; scaled to simulator units via the
        machine's scale factor at :meth:`start`.
    ops_per_access:
        The paper's compute intensity: 1, 10 or 100 integer additions
        between loads.
    n_accesses:
        Total accesses before the generator ends, or ``None`` to run
        forever (the access budget is then enforced by the scheduler's
        warmup/measure windows).
    """

    def __init__(
        self,
        distribution: IndexDistribution,
        buffer_bytes: int,
        ops_per_access: int = 1,
        n_accesses: Optional[int] = None,
        quantum: int = 256,
        name: Optional[str] = None,
    ):
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        if ops_per_access < 0:
            raise ValueError("ops_per_access must be non-negative")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.distribution = distribution
        self.buffer_bytes = buffer_bytes
        self.ops_per_access = ops_per_access
        self.n_accesses = n_accesses
        self.quantum = quantum
        self.name = name or f"prob[{distribution.name},{ops_per_access}ops]"
        self.buffer = None
        self._ctx: Optional[ThreadContext] = None

    def start(self, ctx: ThreadContext) -> None:
        self._ctx = ctx
        sim_bytes = ctx.scaled_bytes(self.buffer_bytes)
        # Keep whole lines so the line pmf matches the allocation exactly.
        line = ctx.socket.line_bytes
        sim_bytes -= sim_bytes % line
        self.buffer = ctx.addrspace.alloc(
            max(sim_bytes, line), elem_bytes=INT_BYTES, label=self.name
        )
        # fill_block progress (chunks() keeps its own generator-local
        # countdown; the scheduler pins one path per run).
        self._fb_remaining = self.n_accesses

    @property
    def elems_per_line(self) -> int:
        assert self.buffer is not None
        return (1 << self.buffer.line_shift) // INT_BYTES

    def line_pmf(self):
        """Per-line access probabilities for the EHR model (Eq. 4)."""
        assert self.buffer is not None, "start() must run before line_pmf()"
        return self.distribution.line_pmf(self.buffer.n_elems, self.elems_per_line)

    def ehr_model(self) -> EHRModel:
        """Eq. 4 for this probe's buffer, without building the pmf when
        this process has modelled the same distribution and buffer."""
        assert self.buffer is not None, "start() must run before ehr_model()"
        return EHRModel.for_distribution(
            self.distribution, self.buffer.n_elems, self.elems_per_line,
            line_bytes=1 << self.buffer.line_shift,
        )

    def chunks(self) -> Iterator[AccessChunk]:
        assert self._ctx is not None and self.buffer is not None
        rng = self._ctx.rng
        total_ops = self.ops_per_access + LOOP_OVERHEAD_OPS
        remaining = self.n_accesses
        n = self.buffer.n_elems
        while remaining is None or remaining > 0:
            size = self.quantum if remaining is None else min(self.quantum, remaining)
            idx = self.distribution.sample(rng, size, n)
            chunk = AccessChunk.from_indices(
                self.buffer, idx, is_write=False, ops_per_access=total_ops
            )
            chunk.prefetchable = False
            yield chunk
            if remaining is not None:
                remaining -= size

    def fill_block(self, writer) -> None:
        """Stage a block of distribution-sampled chunks.

        Full-quantum chunks batch through
        :meth:`IndexDistribution.sample_block`, which is contractually
        RNG-stream-identical to per-chunk :meth:`~IndexDistribution.sample`
        calls (one raw draw for the block; a rejection-sampling
        distribution falls back to the per-chunk loop only when some
        chunk would have drawn twice). Only a final partial chunk
        (finite ``n_accesses`` not a multiple of the quantum) goes
        through the single-chunk path.
        """
        assert self._ctx is not None and self.buffer is not None
        rng = self._ctx.rng
        total_ops = self.ops_per_access + LOOP_OVERHEAD_OPS
        n = self.buffer.n_elems
        q = self.quantum
        n_full = min(writer.free_chunks, max(1, writer.free_lines // q))
        if self._fb_remaining is not None:
            n_full = min(n_full, self._fb_remaining // q)
        if n_full > 0:
            idx = self.distribution.sample_block(rng, n_full, q, n)
            writer.push_uniform(
                self.buffer.lines_of_indices(idx),
                q,
                is_write=False,
                ops_per_access=total_ops,
                prefetchable=False,
            )
            if self._fb_remaining is not None:
                self._fb_remaining -= n_full * q
        if (
            self._fb_remaining is not None
            and 0 < self._fb_remaining < q
            and writer.free_chunks > 0
        ):
            idx = self.distribution.sample(rng, self._fb_remaining, n)
            writer.push(
                self.buffer.lines_of_indices(idx),
                is_write=False,
                ops_per_access=total_ops,
                prefetchable=False,
            )
            self._fb_remaining = 0

    def describe(self) -> str:
        return (
            f"{self.name}: {self.buffer_bytes} paper-bytes, "
            f"{self.ops_per_access} ops/load, dist {self.distribution.name}"
        )
