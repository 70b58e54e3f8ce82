"""Per-core block queues for the macro-stepped scheduler.

The chunk-at-a-time scheduler pays Python overhead per 128–256-access
chunk: a generator resume, a fresh ndarray, an ``AccessChunk``
construction and one ctypes crossing. Macro-stepping amortises all of
that by staging *blocks* of chunks in preallocated per-core ring
buffers that the C scheduler step (``repro.engine._ckernel.sched_step``)
— or its bit-identical pure-Python fallback — consumes without touching
Python between chunks (DESIGN.md, decision 11).

Layout
------

All queue state lives in 2-D C-contiguous arenas with one row per
scheduled thread (roster slot), so the C side receives a single base
pointer + row stride per field:

- ``lines``   — ``int64[n_slots, line_cap]``: chunk line addresses,
  packed back to back within the row;
- per-chunk metadata, ``[n_slots, chunk_cap]``: ``off``/``clen``
  (position within the row), ``cwrite``, ``cops``, ``csid``, ``cser``,
  ``cpf`` (``int64``) and ``cextra`` (``float64``) — exactly the
  :class:`~repro.engine.chunk.AccessChunk` fields;
- ``head``/``count`` — per-slot consume/fill cursors (``int64[n]``).

A slot is refilled only when fully drained (``head == count``), so the
"ring" degenerates to a linear block that rewinds to offset 0 on refill
— same semantics, no wrap-around logic in the hot loop. The ``lines``
arena grows geometrically when a single block needs more room (a rare
path: a workload whose chunks outgrow ``DEFAULT_LINES_PER_CHUNK``);
metadata capacity is fixed at ``chunk_cap`` chunks per block.

Every thread fills its slot in its ``fill_block`` through
:class:`QueueWriter`: vectorised (:meth:`QueueWriter.push_uniform` — one
numpy copy for a run of equal-length chunks), or one chunk at a time
(:meth:`QueueWriter.push`) where chunks differ: a short tail, a chunk
that carries ``extra_ns``, or alternating chunk lengths.

Block budget
------------

A slot's blocks grow with what its thread runs. Its first block may
hold :data:`FIRST_BLOCK_LINES` lines, and every refill doubles the
budget, up to the arena row (``line_cap``). :meth:`QueueWriter.begin`
sets the budget and :attr:`QueueWriter.free_lines` reports what is left
of it, which is how each ``fill_block`` sizes its batch. So a short
window (a few thousand accesses per point) stages about what it runs
instead of a full 64-chunk block per interference thread, while a long
run reaches full blocks after a few refills. No result depends on the
budget: each ``fill_block`` stages exactly its ``chunks()`` stream
whatever ``free_lines`` allows, and the scheduler consumes the queued
chunks in the same order however they were split into blocks.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

#: Chunks buffered per refill block. No result depends on it, only the
#: refill cadence; it must stay >= 8 because ``fill_block``
#: implementations stage whole workload cycles (the triad's 3 chunks,
#: the bubble's 1 + up-to-4) and a block must always hold one.
DEFAULT_CHUNK_CAP = 64

#: Default line-arena budget per chunk slot; blocks whose chunks are
#: larger grow the arena geometrically instead of failing.
DEFAULT_LINES_PER_CHUNK = 512

#: Line budget of a slot's first block; each refill doubles it, up to
#: the arena row. Like the chunk cap, it sets only the refill cadence.
FIRST_BLOCK_LINES = 2048


class BlockQueues:
    """The shared 2-D arenas backing every scheduled thread's block queue."""

    def __init__(
        self,
        n_slots: int,
        chunk_cap: int = DEFAULT_CHUNK_CAP,
        line_cap: Optional[int] = None,
    ):
        if n_slots <= 0:
            raise ValueError("BlockQueues needs at least one slot")
        if chunk_cap <= 0:
            raise ValueError("chunk_cap must be positive")
        if line_cap is None:
            line_cap = chunk_cap * DEFAULT_LINES_PER_CHUNK
        self.n_slots = n_slots
        self.chunk_cap = chunk_cap
        self.line_cap = line_cap
        self.lines = np.zeros((n_slots, line_cap), dtype=np.int64)
        shape = (n_slots, chunk_cap)
        self.off = np.zeros(shape, dtype=np.int64)
        self.clen = np.zeros(shape, dtype=np.int64)
        self.cwrite = np.zeros(shape, dtype=np.int64)
        self.cops = np.zeros(shape, dtype=np.int64)
        self.csid = np.zeros(shape, dtype=np.int64)
        self.cser = np.zeros(shape, dtype=np.int64)
        self.cpf = np.zeros(shape, dtype=np.int64)
        self.cextra = np.zeros(shape, dtype=np.float64)
        self.head = np.zeros(n_slots, dtype=np.int64)
        self.count = np.zeros(n_slots, dtype=np.int64)
        self.used_lines = np.zeros(n_slots, dtype=np.int64)
        #: Bumped whenever the ``lines`` arena is reallocated, so C-side
        #: bindings know to refresh their base pointer.
        self.generation = 0

    def pending(self, slot: int) -> int:
        """Chunks queued but not yet consumed on ``slot``."""
        return int(self.count[slot] - self.head[slot])

    def grow_lines(self, min_line_cap: int) -> None:
        """Reallocate the line arena to at least ``min_line_cap`` per
        row, preserving every slot's queued content."""
        new_cap = self.line_cap
        while new_cap < min_line_cap:
            new_cap *= 2
        if new_cap == self.line_cap:
            return
        fresh = np.zeros((self.n_slots, new_cap), dtype=np.int64)
        fresh[:, : self.line_cap] = self.lines
        self.lines = fresh
        self.line_cap = new_cap
        self.generation += 1


class QueueWriter:
    """Fill-side view of one slot; handed to ``SimThread.fill_block``.

    A writer is always handed over *empty* (the scheduler calls
    :meth:`begin` right before the fill), with the full ``chunk_cap``
    chunks and the block's line budget available: the first block's
    budget is :data:`FIRST_BLOCK_LINES`, and each later one doubles it,
    up to ``line_cap``. Implementations must push at least one chunk
    unless the workload is finished — returning zero chunks from
    ``fill_block`` marks the thread exhausted.
    """

    __slots__ = ("q", "slot", "budget")

    def __init__(self, q: BlockQueues, slot: int):
        self.q = q
        self.slot = slot
        #: Line budget of the current block (0 before the first).
        self.budget = 0

    def begin(self) -> None:
        """Rewind the slot for a fresh block and set its line budget:
        :data:`FIRST_BLOCK_LINES` for the first block, then twice the
        previous budget, up to the arena row (scheduler-internal)."""
        q, s = self.q, self.slot
        q.head[s] = 0
        q.count[s] = 0
        q.used_lines[s] = 0
        self.budget = min(max(2 * self.budget, FIRST_BLOCK_LINES), q.line_cap)

    @property
    def free_chunks(self) -> int:
        return int(self.q.chunk_cap - self.q.count[self.slot])

    @property
    def free_lines(self) -> int:
        """What is left of the block's line budget. Soft: :meth:`push`
        grows the arena rather than fail, and a ``fill_block`` stages at
        least one chunk however small this is, but implementations size
        their batch to it, so a short window stages about what it
        runs."""
        return max(self.budget - int(self.q.used_lines[self.slot]), 0)

    def push(
        self,
        lines: Union[np.ndarray, list],
        is_write: bool = False,
        ops_per_access: int = 1,
        stream_id: int = 0,
        serialize: bool = False,
        extra_ns: float = 0.0,
        prefetchable: bool = True,
    ) -> bool:
        """Append one chunk; returns False when ``chunk_cap`` is full."""
        q, s = self.q, self.slot
        c = int(q.count[s])
        if c >= q.chunk_cap:
            return False
        if ops_per_access < 0:
            raise ValueError("ops_per_access must be non-negative")
        arr = np.ascontiguousarray(lines, dtype=np.int64)
        n = int(arr.size)
        if n == 0:
            raise ValueError("cannot queue an empty chunk "
                             "(empty means thread termination)")
        pos = int(q.used_lines[s])
        if pos + n > q.line_cap:
            q.grow_lines(pos + n)
        q.lines[s, pos:pos + n] = arr
        q.off[s, c] = pos
        q.clen[s, c] = n
        q.cwrite[s, c] = 1 if is_write else 0
        q.cops[s, c] = ops_per_access
        q.csid[s, c] = stream_id
        q.cser[s, c] = 1 if serialize else 0
        q.cpf[s, c] = 1 if prefetchable else 0
        q.cextra[s, c] = extra_ns
        q.count[s] = c + 1
        q.used_lines[s] = pos + n
        return True

    def push_uniform(
        self,
        flat_lines: np.ndarray,
        chunk_len: int,
        is_write: Union[bool, np.ndarray] = False,
        ops_per_access: Union[int, np.ndarray] = 1,
        stream_id: Union[int, np.ndarray] = 0,
        serialize: Union[bool, np.ndarray] = False,
        prefetchable: Union[bool, np.ndarray] = True,
    ) -> int:
        """Append ``len(flat_lines) // chunk_len`` equal-length chunks
        with one arena copy and vectorised metadata writes.

        ``flat_lines`` must hold a whole number of chunks. Metadata
        accepts scalars (shared by every chunk) or per-chunk arrays of
        length ``k`` (e.g. BWThr's rotating ``stream_id``). Returns the
        number of chunks appended (0 if ``chunk_cap`` is already full).
        """
        q, s = self.q, self.slot
        if chunk_len <= 0:
            raise ValueError("chunk_len must be positive")
        arr = np.ascontiguousarray(flat_lines, dtype=np.int64)
        if arr.size % chunk_len:
            raise ValueError(
                f"flat_lines ({arr.size}) is not a multiple of "
                f"chunk_len ({chunk_len})"
            )
        k = min(arr.size // chunk_len, self.free_chunks)
        if k <= 0:
            return 0
        n = k * chunk_len
        if np.min(np.asarray(ops_per_access)) < 0:
            raise ValueError("ops_per_access must be non-negative")
        c0 = int(q.count[s])
        pos = int(q.used_lines[s])
        if pos + n > q.line_cap:
            q.grow_lines(pos + n)
        q.lines[s, pos:pos + n] = arr[:n]
        sl = slice(c0, c0 + k)
        q.off[s, sl] = pos + chunk_len * np.arange(k, dtype=np.int64)
        q.clen[s, sl] = chunk_len
        q.cwrite[s, sl] = np.asarray(is_write, dtype=np.int64)
        q.cops[s, sl] = np.asarray(ops_per_access, dtype=np.int64)
        q.csid[s, sl] = np.asarray(stream_id, dtype=np.int64)
        q.cser[s, sl] = np.asarray(serialize, dtype=np.int64)
        q.cpf[s, sl] = np.asarray(prefetchable, dtype=np.int64)
        q.cextra[s, sl] = 0.0
        q.count[s] = c0 + k
        q.used_lines[s] = pos + n
        return k
