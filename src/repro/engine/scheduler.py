"""Min-clock multicore scheduler.

Each simulated thread owns a core with a local clock. The scheduler
repeatedly picks the least-advanced *runnable* core and executes its next
access chunk, so cores interleave in simulated-time order up to one chunk
(the interleave quantum, DESIGN.md decision 2). This is what makes
interference emergent: a thread that stalls on DRAM advances its clock
quickly per access and therefore executes fewer accesses per unit of
simulated time than an L3-resident thread — exactly the dynamics the
paper's CSThr/BWThr interplay relies on.

Ties in the min-scan are broken by *core id* (CoreStates are sorted at
construction): the lowest-numbered least-advanced core runs first. This
makes the interleave order a documented invariant rather than an
accident of ``add_thread`` call order.

The interleave is macro-stepped (DESIGN.md decision 11): threads stage
whole *blocks* of chunks into preallocated per-core queues
(:mod:`repro.engine.blockq`) through their vectorised ``fill_block``,
and the min-clock loop consumes them in the compiled
``repro.engine._ckernel.sched_step``, which binds to a lone array
socket and to a multi-socket :class:`~repro.engine.node.NodeKernel`
over array sockets alike. The list kernel, on hosts without a C
compiler, runs the bit-identical pure-Python
:meth:`Scheduler._py_macro_step`.
Python is re-entered only to refill a drained queue, so per-chunk
scheduling overhead amortises over the block. Either step runs each
chunk through the kernel's ``run_chunk``, which adds it to the kernel's
counter matrices (:mod:`repro.mem.counters`) in place, so the
scheduler keeps no counters of its own. The original
chunk-at-a-time loop, which resumes each thread's ``chunks()``
generator once per chunk, survives as the semantic reference,
:func:`repro.bench.run_chunk_at_a_time`: all of them produce
bit-identical event counters and exactly-equal finish times
(``tests/engine/test_sched_equivalence.py``).

Stopping conditions: all *main* threads finish (their streams are
exhausted or they reach an access budget), or a global simulated-time /
access safety limit trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from ..obs import span
from . import _ckernel as _ck
from .blockq import DEFAULT_CHUNK_CAP, BlockQueues, QueueWriter
from .chunk import AccessChunk
from .thread import SimThread

if TYPE_CHECKING:  # avoid an import cycle with arraypath/socket_sim
    from .arraypath import SocketKernel

#: Chunks per ``sched_step`` call. Any value above n_slots * chunk_cap
#: can never trip (some queue drains first); this is a pure backstop.
_MAX_STEPS = 1 << 30


@dataclass
class CoreState:
    """Bookkeeping for one scheduled thread."""

    core_id: int
    thread: SimThread
    #: The thread's ``chunks()`` stream, read only by the chunk-at-a-time
    #: reference; the macro scheduler stages through ``fill_block``.
    gen: Iterator[AccessChunk]
    clock_ns: float = 0.0
    accesses: int = 0
    done: bool = False
    is_main: bool = False
    #: Completion time, set when the stream is exhausted or the budget
    #: is reached.
    finish_ns: Optional[float] = None


@dataclass
class ScheduleOutcome:
    """What a scheduler run produced."""

    #: Simulated time at which the run stopped (max over main finishes,
    #: or the budget horizon).
    end_ns: float = 0.0
    start_ns: float = 0.0
    #: Per-core completion times for main threads (core_id -> ns).
    main_finish_ns: Dict[int, float] = field(default_factory=dict)
    total_accesses: int = 0

    @property
    def elapsed_ns(self) -> float:
        return self.end_ns - self.start_ns

    @property
    def makespan_ns(self) -> float:
        """Max main-thread completion relative to start (the 'execution
        time' the paper plots)."""
        if not self.main_finish_ns:
            return self.elapsed_ns
        return max(self.main_finish_ns.values()) - self.start_ns


class _MacroState:
    """Macro-mode scheduler state: the per-slot block queues plus the
    flat arrays the compiled ``sched_step`` (and its Python mirror)
    operate on. Slots follow roster order (CoreStates sorted by
    core_id), which *is* the min-scan tie-break order. Persists across
    measurement windows: leftover queued chunks carry over, exactly
    where the thread's stream left off."""

    def __init__(self, cores: Sequence[CoreState]):
        n = len(cores)
        self.q = BlockQueues(n, chunk_cap=DEFAULT_CHUNK_CAP)
        self.writers = [QueueWriter(self.q, i) for i in range(n)]
        #: True once a thread's stream ended (``fill_block`` staged
        #: nothing). Sticky across windows, so a reopened exhausted main
        #: immediately re-completes — matching what ``next()`` on a
        #: spent generator does in chunk mode.
        self.exhausted: List[bool] = [False] * n
        self.core_ids = np.array([c.core_id for c in cores], dtype=np.int64)
        self.clock = np.zeros(n, dtype=np.float64)
        self.accesses = np.zeros(n, dtype=np.int64)
        self.flags = np.zeros(n, dtype=np.int64)
        self.finish = np.zeros(n, dtype=np.float64)
        self.goal = np.full(n, -1, dtype=np.int64)
        self.max_total = 0
        self.total = 0
        self.active_mains = 0
        self.event = -1
        #: Cached compiled-step binding (``arraypath._SchedBinding``).
        #: The SCH struct points at the arrays above, which never move,
        #: so it is built once per macro state and reused every window.
        self.binding = None


class Scheduler:
    """Drives a set of threads over a socket kernel (array or list —
    both expose the same ``run_chunk`` contract)."""

    def __init__(self, fast: "SocketKernel", cores: Sequence[CoreState]):
        self.fast = fast
        # Sorted by core id so the min-scan tie-break is an invariant of
        # the placement, not of add_thread call order.
        self.cores = sorted(cores, key=lambda c: c.core_id)
        if not self.cores:
            raise SimulationError("scheduler needs at least one thread")
        ids = [c.core_id for c in self.cores]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"duplicate core ids: {ids}")
        # Node kernels expose the node-wide core count directly (global,
        # socket-major core ids); plain socket kernels fall back to the
        # socket geometry.
        n = getattr(fast, "n_cores", None) or fast.socket.n_cores
        for c in self.cores:
            if not 0 <= c.core_id < n:
                raise SimulationError(
                    f"core id {c.core_id} out of range for {n}-core kernel"
                )
        self._macro: Optional[_MacroState] = None

    def open_window(self):
        """Align every clock to the window start and return the runnable
        mains plus a fresh outcome (shared with the chunk-at-a-time
        reference, :func:`repro.bench.run_chunk_at_a_time`)."""
        mains = [c for c in self.cores if c.is_main and not c.done]
        if not mains:
            raise SimulationError("no runnable main thread")
        start_ns = max((c.clock_ns for c in self.cores), default=0.0)
        # Align clocks: a freshly-added thread starts when the window opens.
        for c in self.cores:
            if c.clock_ns < start_ns:
                c.clock_ns = start_ns
        return mains, ScheduleOutcome(start_ns=start_ns)

    def run(
        self,
        main_access_budget: Optional[int] = None,
        max_total_accesses: int = 500_000_000,
    ) -> ScheduleOutcome:
        """Run until every main thread completes.

        ``main_access_budget`` caps each main thread's accesses *within
        this call* (used for warm-up/measure windows over infinite
        generators); mains with finite generators may finish earlier.
        Interference (non-main) threads run as long as any main is active.
        """
        mains, outcome = self.open_window()
        st = self._macro
        if st is None:
            st = self._macro = _MacroState(self.cores)

        # Mirror the CoreStates into the flat scheduling arrays and set
        # the per-main access goals of this window.
        st.max_total = int(max_total_accesses)
        st.total = 0
        st.active_mains = len(mains)
        window_slots = set()
        for i, cs in enumerate(self.cores):
            st.clock[i] = cs.clock_ns
            st.accesses[i] = cs.accesses
            f = 0
            if cs.done:
                f |= _ck.F_DONE
            if cs.is_main:
                f |= _ck.F_MAIN
            if st.exhausted[i]:
                f |= _ck.F_EXHAUSTED
            st.flags[i] = f
            st.finish[i] = cs.finish_ns if cs.finish_ns is not None else 0.0
            if cs.is_main and not cs.done and main_access_budget is not None:
                window_slots.add(i)
                st.goal[i] = cs.accesses + main_access_budget
            else:
                if cs.is_main and not cs.done:
                    window_slots.add(i)
                st.goal[i] = -1

        from .arraypath import bind_sched_step

        step = bind_sched_step(self.fast, st)
        try:
            with span(
                "engine.schedule",
                cat="engine",
                mode="macro-c" if step is not None else "macro-py",
            ):
                while st.active_mains > 0:
                    if step is not None:
                        status = step(st, _MAX_STEPS)
                    else:
                        status = self._py_macro_step(st, _MAX_STEPS)
                    if status == _ck.STEP_DONE:
                        break
                    self.macro_window_event(status)
                    # STEP_MAXSTEPS: backstop tripped, just re-enter.
        finally:
            # Record whatever progress the window made, also after a
            # mid-window error.
            for i, cs in enumerate(self.cores):
                cs.clock_ns = float(st.clock[i])
                cs.accesses = int(st.accesses[i])
                if (st.flags[i] & _ck.F_DONE) and not cs.done:
                    cs.done = True
                    cs.finish_ns = float(st.finish[i])
                if cs.done and i in window_slots:
                    outcome.main_finish_ns[cs.core_id] = float(st.finish[i])

        outcome.end_ns = max(outcome.main_finish_ns.values())
        outcome.total_accesses = st.total
        return outcome

    def macro_window_event(self, status: int) -> None:
        """Service a non-terminal step status: refill the drained slot,
        or raise on the pre-dispatch safety limit."""
        st = self._macro
        assert st is not None
        if status == _ck.STEP_REFILL:
            self._refill(st, st.event)
        elif status == _ck.STEP_LIMIT:
            slot = st.event
            cs = self.cores[slot]
            clen = int(st.q.clen[slot, st.q.head[slot]])
            raise SimulationError(
                f"simulation would have exceeded "
                f"{st.max_total} accesses dispatching a "
                f"{clen}-access chunk on core {cs.core_id} "
                f"({cs.thread.name!r}) at {st.total} total; "
                "likely a runaway interference-only configuration"
            )

    def _py_macro_step(self, st: _MacroState, max_steps: int) -> int:
        """Pure-Python mirror of the compiled ``sched_step`` (same
        arrays, same statuses, same tie-break), used for the list kernel
        (a node over list kernels included). Chunks are zero-copy views
        into the queue arena, executed through the kernel's ordinary
        ``run_chunk`` — so event counters and finish times are
        bit-identical by construction."""
        q = st.q
        run_chunk = self.fast.run_chunk
        flags, clock, accesses = st.flags, st.clock, st.accesses
        goal, finish = st.goal, st.finish
        head, count = q.head, q.count
        n = q.n_slots
        steps = 0
        while st.active_mains > 0:
            if steps >= max_steps:
                return _ck.STEP_MAXSTEPS
            best = -1
            best_clock = 0.0
            for i in range(n):
                if flags[i] & _ck.F_DONE:
                    continue
                if best < 0 or clock[i] < best_clock:
                    best = i
                    best_clock = clock[i]
            if head[best] >= count[best]:
                if not (flags[best] & _ck.F_EXHAUSTED):
                    st.event = best
                    return _ck.STEP_REFILL
                flags[best] |= _ck.F_DONE
                finish[best] = clock[best]
                if flags[best] & _ck.F_MAIN:
                    st.active_mains -= 1
                steps += 1
                continue
            c = int(head[best])
            clen = int(q.clen[best, c])
            if st.total + clen > st.max_total:
                st.event = best
                return _ck.STEP_LIMIT
            off = int(q.off[best, c])
            chunk = AccessChunk(
                lines=q.lines[best, off:off + clen],
                is_write=bool(q.cwrite[best, c]),
                ops_per_access=int(q.cops[best, c]),
                stream_id=int(q.csid[best, c]),
                serialize=bool(q.cser[best, c]),
                extra_ns=float(q.cextra[best, c]),
                prefetchable=bool(q.cpf[best, c]),
            )
            t = run_chunk(int(st.core_ids[best]), chunk, float(clock[best]))
            clock[best] = t
            accesses[best] += clen
            st.total += clen
            head[best] = c + 1
            steps += 1
            if (
                (flags[best] & _ck.F_MAIN)
                and goal[best] >= 0
                and accesses[best] >= goal[best]
            ):
                flags[best] |= _ck.F_DONE
                finish[best] = t
                st.active_mains -= 1
        return _ck.STEP_DONE

    def _refill(self, st: _MacroState, slot: int) -> None:
        """Stage the next block of chunks for ``slot`` through the
        thread's ``fill_block``. Zero chunks staged = the stream ended
        (sticky ``exhausted``). Line addresses are validated — and the
        kernel's dirty bitmap pre-grown — for the whole block here,
        because the compiled loop indexes it unguarded."""
        w = st.writers[slot]
        w.begin()
        self.cores[slot].thread.fill_block(w)
        if st.q.count[slot] == 0:
            st.exhausted[slot] = True
            st.flags[slot] |= _ck.F_EXHAUSTED
            return
        if hasattr(self.fast, "ensure_line_capacity"):
            used = int(st.q.used_lines[slot])
            self.fast.ensure_line_capacity(st.q.lines[slot, :used])

    def reopen_mains(self) -> None:
        """Mark budget-stopped main threads runnable again for the next
        measurement window (their generators are still live)."""
        for c in self.cores:
            if c.is_main and c.done and c.finish_ns is not None:
                c.done = False
                c.finish_ns = None
