"""Phase-structured proxy applications.

MCB and Lulesh enter the paper only through their memory behaviour:
working-set sizes, access locality, compute-per-load and communication
volume. A :class:`RankApp` describes one MPI rank as a list of named
buffers and a per-iteration sequence of *phases*:

- :class:`StreamPhase` — sequential sweeps over a buffer (stencil
  passes, particle-array updates; prefetch-friendly),
- :class:`RandomPhase` — randomly indexed accesses (tally updates,
  gather/scatter; prefetch-hostile),
- a communication phase derived from
  :meth:`RankApp.comm_bytes_by_distance`: pack/unpack memory traffic is
  executed as real accesses against staging buffers (on-socket traffic
  re-uses one L3-resident buffer; off-socket traffic rotates through a
  pool so it streams from DRAM — the mechanism behind the paper's
  "one process per processor consumes more memory bandwidth because all
  the communications go through the memory bus"), while wire time is
  charged via ``AccessChunk.extra_ns``.

Subclasses define :meth:`buffer_specs`, :meth:`iteration_phases` and the
communication volume; everything else (allocation, chunking, staging,
jitter) lives here, twice: :meth:`RankApp.chunks` generates the stream
one chunk at a time (the reference semantics), and
:meth:`RankApp.fill_block` stages the same stream a block at a time for
the scheduler, drawing each run's random indices in one call.
"""

from __future__ import annotations

from abc import abstractmethod
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..cluster.job import CommEnv
from ..cluster.mapping import Distance
from ..engine.chunk import AccessChunk
from ..engine.thread import SimThread, ThreadContext
from ..errors import ConfigError
from ..mem.addrspace import Buffer
from ..workloads.distributions import IndexDistribution

#: Staging buffers rotated for off-socket traffic (defeats L3 reuse of
#: large messages across iterations, like real rendezvous buffers).
REMOTE_STAGING_POOL = 4

#: Prefetcher stream ids of the off-socket and on-socket staging
#: buffers. A buffer's own streams use ``1 +`` its index in
#: ``buffer_specs()``, so within a rank no two buffers share a stream
#: tracker, and none shares one with the staging streams or with the
#: default id 0.
REMOTE_STAGING_STREAM = 0x7E50
LOCAL_STAGING_STREAM = 0x10CA


@dataclass(frozen=True)
class BufferSpec:
    """One named allocation, sized in paper units."""

    label: str
    paper_bytes: int
    elem_bytes: int = 4


@dataclass(frozen=True)
class StreamPhase:
    """Sequential sweep(s) over a buffer."""

    buffer: str
    passes: float = 1.0
    ops_per_access: int = 8
    is_write: bool = False


@dataclass(frozen=True)
class RandomPhase:
    """Randomly indexed accesses over a buffer."""

    buffer: str
    n_accesses: int
    ops_per_access: int = 8
    is_write: bool = False
    #: Index distribution; None = uniform.
    distribution: Optional[IndexDistribution] = None


Phase = object  # StreamPhase | RandomPhase (kept loose for 3.10)


@dataclass(frozen=True)
class _Run:
    """One phase or communication step of :meth:`RankApp.chunks` as a
    run of ``quantum``-access chunks (the last may be short): ``total``
    lines swept cyclically from the start of ``buf``, or, when
    ``random``, ``total`` random element accesses into it. Only the
    run's first chunk carries ``extra_ns``."""

    buf: Buffer
    total: int
    is_write: bool
    ops_per_access: int
    stream_id: int = 0
    extra_ns: float = 0.0
    random: bool = False
    distribution: Optional[IndexDistribution] = None


class RankApp(SimThread):
    """One application rank, expressed as buffers + phases.

    Parameters
    ----------
    rank:
        Global MPI rank id (used for naming and seeds).
    n_iterations:
        Outer timesteps to execute; the thread's generator ends after
        the last one (finite workload).
    comm_env:
        ``None`` disables communication entirely (single-socket studies).
    """

    #: Chunk length for generated access runs.
    quantum = 256

    def __init__(
        self,
        rank: int = 0,
        n_iterations: int = 2,
        comm_env: Optional[CommEnv] = None,
        name: Optional[str] = None,
    ):
        if n_iterations <= 0:
            raise ConfigError("n_iterations must be positive")
        self.rank = rank
        self.n_iterations = n_iterations
        self.comm_env = comm_env
        self.name = name or f"{type(self).__name__}[rank{rank}]"
        self.buffers: Dict[str, Buffer] = {}
        self._ctx: Optional[ThreadContext] = None
        self._local_staging: Optional[Buffer] = None
        self._remote_staging: List[Buffer] = []
        self._stream_ids: Dict[str, int] = {}

    # -- subclass surface ---------------------------------------------------------

    @abstractmethod
    def buffer_specs(self) -> Sequence[BufferSpec]:
        """Named allocations, in paper units."""

    @abstractmethod
    def iteration_phases(self) -> Sequence[Phase]:
        """Compute phases of one timestep, in order."""

    def comm_bytes_by_distance(self) -> Dict[Distance, int]:
        """Per-iteration message volume by partner distance. Empty (the
        default) means a communication-free application."""
        return {}

    # -- SimThread ----------------------------------------------------------------

    def start(self, ctx: ThreadContext) -> None:
        self._ctx = ctx
        for i, spec in enumerate(self.buffer_specs()):
            self._stream_ids[spec.label] = 1 + i
            sim_bytes = max(
                ctx.scaled_bytes(spec.paper_bytes), ctx.socket.line_bytes
            )
            sim_bytes -= sim_bytes % spec.elem_bytes or 0
            self.buffers[spec.label] = ctx.addrspace.alloc(
                max(sim_bytes, spec.elem_bytes),
                elem_bytes=spec.elem_bytes,
                label=f"{self.name}.{spec.label}",
            )
        comm = self.comm_bytes_by_distance()
        if comm:
            line = ctx.socket.line_bytes
            local_bytes = comm.get(Distance.SOCKET, 0)
            remote_bytes = comm.get(Distance.NODE, 0) + comm.get(Distance.REMOTE, 0)
            if local_bytes:
                self._local_staging = ctx.addrspace.alloc(
                    _round_line(ctx.scaled_bytes(max(local_bytes, line)), line),
                    elem_bytes=8,
                    label=f"{self.name}.staging.local",
                )
            if remote_bytes:
                size = _round_line(ctx.scaled_bytes(max(remote_bytes, line)), line)
                self._remote_staging = [
                    ctx.addrspace.alloc(size, elem_bytes=8, label=f"{self.name}.staging.{i}")
                    for i in range(REMOTE_STAGING_POOL)
                ]
        # fill_block cursor: the lazy run stream, its current run and the
        # accesses already staged from it (chunks() keeps its own
        # generator-local state; the scheduler pins one path per run).
        self._fb_runs = self._runs()
        self._fb_run: Optional[_Run] = None
        self._fb_pos = 0

    def chunks(self) -> Iterator[AccessChunk]:
        assert self._ctx is not None, "start() must run first"
        for it in range(self.n_iterations):
            yield from self._compute_chunks()
            yield from self._comm_chunks(it)

    # -- phase execution -----------------------------------------------------------

    def _compute_chunks(self) -> Iterator[AccessChunk]:
        rng = self._ctx.rng
        for phase in self.iteration_phases():
            if isinstance(phase, StreamPhase):
                yield from self._stream_chunks(phase)
            elif isinstance(phase, RandomPhase):
                yield from self._random_chunks(phase, rng)
            else:
                raise ConfigError(f"unknown phase type {type(phase).__name__}")

    def _stream_chunks(self, phase: StreamPhase) -> Iterator[AccessChunk]:
        buf = self._buffer(phase.buffer)
        total_lines = int(buf.n_lines * phase.passes)
        base = buf.base_line
        n = buf.n_lines
        stream_id = self._stream_ids[phase.buffer]
        pos = 0
        while total_lines > 0:
            take = min(self.quantum, total_lines)
            lines = [base + ((pos + i) % n) for i in range(take)]
            pos = (pos + take) % n
            total_lines -= take
            yield AccessChunk(
                lines=lines,
                is_write=phase.is_write,
                ops_per_access=phase.ops_per_access,
                stream_id=stream_id,
            )

    def _random_chunks(self, phase: RandomPhase, rng: np.random.Generator) -> Iterator[AccessChunk]:
        buf = self._buffer(phase.buffer)
        remaining = phase.n_accesses
        n = buf.n_elems
        while remaining > 0:
            take = min(self.quantum, remaining)
            if phase.distribution is None:
                idx = rng.integers(0, n, size=take)
            else:
                idx = phase.distribution.sample(rng, take, n)
            remaining -= take
            chunk = AccessChunk.from_indices(
                buf, idx, is_write=phase.is_write, ops_per_access=phase.ops_per_access
            )
            chunk.prefetchable = False
            yield chunk

    def _comm_chunks(self, iteration: int) -> Iterator[AccessChunk]:
        comm = self.comm_bytes_by_distance()
        if not comm or self.comm_env is None:
            return
        env = self.comm_env
        wire_ns = env.comm_model.exchange_ns(comm)
        jitter = float(env.noise.sample_factor(self._ctx.rng))
        extra = wire_ns * jitter
        # Pack/unpack traffic: off-socket bytes stream through a rotating
        # pool (DRAM traffic); on-socket bytes hit one resident buffer.
        # start() stages every volume the wire time prices, so the first
        # staging chunk always carries it.
        if self._remote_staging:
            staging = self._remote_staging[iteration % len(self._remote_staging)]
            yield from self._staging_chunks(
                staging, extra_first=extra, stream_id=REMOTE_STAGING_STREAM
            )
            extra = 0.0
        if self._local_staging is not None:
            yield from self._staging_chunks(
                self._local_staging, extra_first=extra,
                stream_id=LOCAL_STAGING_STREAM,
            )

    def _staging_chunks(
        self, staging: Buffer, extra_first: float, stream_id: int
    ) -> Iterator[AccessChunk]:
        base = staging.base_line
        n = staging.n_lines
        pos = 0
        first = True
        while pos < n:
            take = min(self.quantum, n - pos)
            yield AccessChunk(
                lines=list(range(base + pos, base + pos + take)),
                is_write=True,
                ops_per_access=2,
                stream_id=stream_id,
                extra_ns=extra_first if first else 0.0,
            )
            first = False
            pos += take

    # -- block staging -------------------------------------------------------------

    def fill_block(self, writer) -> None:
        """Stage the next block of the :meth:`chunks` stream.

        A block may start and end anywhere in a run, at chunk
        boundaries. A swept run's lines are one closed-form slice. A
        random run's indices are one ``rng.integers`` draw for every
        chunk staged from it (``Generator.integers`` continues one bit
        stream across calls, so one draw is the concatenation of the
        per-chunk draws), or with a distribution one
        :meth:`~repro.workloads.distributions.IndexDistribution.sample_block`
        for the whole chunks plus one ``sample`` for a short tail. The
        comm phase's noise draw happens when the cursor enters it, so
        the rank's RNG is consumed draw for draw as :meth:`chunks`
        consumes it.
        """
        assert self._ctx is not None, "start() must run first"
        q = self.quantum
        budget = min(writer.free_chunks, max(1, writer.free_lines // q))
        while budget > 0:
            run, pos = self._fb_run, self._fb_pos
            if run is None or pos >= run.total:
                run = self._fb_run = next(self._fb_runs, None)
                self._fb_pos = 0
                if run is None:
                    return
                continue
            end = min(run.total, pos + budget * q)
            lines = self._run_lines(run, pos, end)
            meta = dict(
                is_write=run.is_write,
                ops_per_access=run.ops_per_access,
                stream_id=run.stream_id,
                prefetchable=not run.random,
            )
            n = end - pos
            first = min(q, n) if pos == 0 and run.extra_ns else 0
            if first:
                writer.push(lines[:first], extra_ns=run.extra_ns, **meta)
            tail = first + (n - first) // q * q
            if tail > first:
                writer.push_uniform(lines[first:tail], q, **meta)
            if tail < n:
                writer.push(lines[tail:], **meta)
            budget -= -(-n // q)
            self._fb_pos = end

    def _run_lines(self, run: _Run, start: int, end: int) -> np.ndarray:
        """Line addresses of accesses ``[start, end)`` of ``run``
        (``start`` on a chunk boundary)."""
        buf = run.buf
        if not run.random:
            return buf.base_line + np.arange(start, end, dtype=np.int64) % buf.n_lines
        rng, n, dist = self._ctx.rng, buf.n_elems, run.distribution
        if dist is None:
            return buf.lines_of_indices(rng.integers(0, n, size=end - start))
        q = self.quantum
        whole, tail = divmod(end - start, q)
        idx = dist.sample_block(rng, whole, q, n) if whole else np.empty(0, np.int64)
        if tail:
            idx = np.concatenate([idx, dist.sample(rng, tail, n)])
        return buf.lines_of_indices(idx)

    def _runs(self) -> Iterator[_Run]:
        """The :meth:`chunks` stream as runs, generated lazily so that
        each iteration's noise draw happens in stream order."""
        for it in range(self.n_iterations):
            for phase in self.iteration_phases():
                if isinstance(phase, StreamPhase):
                    buf = self._buffer(phase.buffer)
                    yield _Run(
                        buf, int(buf.n_lines * phase.passes), phase.is_write,
                        phase.ops_per_access, self._stream_ids[phase.buffer],
                    )
                elif isinstance(phase, RandomPhase):
                    yield _Run(
                        self._buffer(phase.buffer), phase.n_accesses,
                        phase.is_write, phase.ops_per_access, random=True,
                        distribution=phase.distribution,
                    )
                else:
                    raise ConfigError(f"unknown phase type {type(phase).__name__}")
            comm = self.comm_bytes_by_distance()
            if not comm or self.comm_env is None:
                continue
            env = self.comm_env
            jitter = float(env.noise.sample_factor(self._ctx.rng))
            extra = env.comm_model.exchange_ns(comm) * jitter
            staging = []
            if self._remote_staging:
                pool = self._remote_staging
                staging.append((pool[it % len(pool)], REMOTE_STAGING_STREAM))
            if self._local_staging is not None:
                staging.append((self._local_staging, LOCAL_STAGING_STREAM))
            for buf, stream_id in staging:
                yield _Run(
                    buf, buf.n_lines, is_write=True, ops_per_access=2,
                    stream_id=stream_id, extra_ns=extra,
                )
                extra = 0.0

    # -- helpers ---------------------------------------------------------------

    def _buffer(self, label: str) -> Buffer:
        try:
            return self.buffers[label]
        except KeyError:
            raise ConfigError(
                f"{self.name}: phase references unknown buffer {label!r}"
            ) from None

    def working_set_paper_bytes(self) -> int:
        """Total declared working set, paper units."""
        return sum(s.paper_bytes for s in self.buffer_specs())


def _round_line(n: int, line: int) -> int:
    return max(line, n - n % line)
