"""High-level facade for single-socket simulations.

Typical use (this is the shape every experiment driver follows)::

    sim = SocketSimulator(xeon20mb(), seed=7)
    sim.add_thread(bench, main=True)          # the measured application
    for k in range(3):
        sim.add_thread(CSThr(...))            # interference threads
    sim.warmup(accesses=100_000)              # populate caches, discard
    result = sim.measure(accesses=50_000)     # counters over this window
    print(result.l3_miss_rate(core=0))

Thread placement follows the paper's protocol: the measured application
occupies the first cores of the socket and interference threads the
remaining ones, so they only share the L3 and the DRAM link.

For multi-socket scenarios (socket pinning, NUMA page placement, the
inter-socket link) use :class:`~repro.engine.node.NodeSimulator`; its
1-socket configuration is bit-identical to this class
(``tests/engine/test_node_equivalence.py``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..config import SocketConfig
from ..errors import SimulationError
from ..mem.addrspace import AddressSpace
from .arraypath import make_socket_kernel
from .results import MeasureResult
from .scheduler import CoreState, Scheduler, ScheduleOutcome
from .thread import SimThread, ThreadContext


class SocketSimulator:
    """Owns a socket kernel (array or list, see
    :func:`~repro.engine.arraypath.make_socket_kernel`), an address space
    and a thread roster."""

    def __init__(
        self,
        socket: SocketConfig,
        seed: int = 0,
        track_owner: bool = False,
    ):
        self.socket = socket
        self.seed = seed
        self.fast = make_socket_kernel(socket, track_owner=track_owner)
        self.addrspace = AddressSpace(line_bytes=socket.line_bytes)
        self._threads: List[CoreState] = []
        self._started = False
        self._scheduler: Optional[Scheduler] = None
        self._next_core = 0
        self._clock_ns = 0.0

    # -- roster ---------------------------------------------------------------

    def add_thread(
        self, thread: SimThread, core: Optional[int] = None, main: bool = False
    ) -> int:
        """Register a thread; returns the core it was pinned to.

        Cores are assigned in increasing order when not given explicitly.
        """
        if self._started:
            raise SimulationError("cannot add threads after the run started")
        if core is None:
            core = self._next_core
        used = {c.core_id for c in self._threads}
        if core in used:
            raise SimulationError(f"core {core} already occupied")
        if not 0 <= core < self.socket.n_cores:
            raise SimulationError(
                f"core {core} out of range: socket has {self.socket.n_cores} cores"
            )
        self._next_core = max(self._next_core, core + 1)
        state = CoreState(core_id=core, thread=thread, gen=iter(()), is_main=main)
        self._threads.append(state)
        return core

    @property
    def main_cores(self) -> List[int]:
        return [c.core_id for c in self._threads if c.is_main]

    # -- lifecycle -------------------------------------------------------------

    def _start(self) -> None:
        """Start every thread (each allocates its buffers), size the
        kernel's dirty bitmap once from what they allocated, and build
        the scheduler."""
        if self._started:
            return
        if not any(c.is_main for c in self._threads):
            raise SimulationError("at least one thread must be main=True")
        for state in self._threads:
            ctx = ThreadContext(
                socket=self.socket,
                addrspace=self.addrspace,
                rng=np.random.default_rng((self.seed, state.core_id)),
                core_id=state.core_id,
            )
            state.thread.start(ctx)
            state.gen = state.thread.chunks()
        self.fast.reserve_lines(
            self.addrspace.used_bytes >> self.addrspace.line_shift)
        self._scheduler = Scheduler(self.fast, self._threads)
        self._started = True

    def _run(self, budget: Optional[int]) -> ScheduleOutcome:
        self._start()
        assert self._scheduler is not None
        self._scheduler.reopen_mains()
        outcome = self._scheduler.run(main_access_budget=budget)
        self._clock_ns = outcome.end_ns
        return outcome

    def warmup(self, accesses: int) -> ScheduleOutcome:
        """Run mains for ``accesses`` each, then discard all counters.

        Mirrors the paper's steady-state assumption ("N_ACCESS much larger
        than the buffer sizes"): the caches reach their equilibrium
        occupancy before anything is measured.
        """
        outcome = self._run(accesses)
        self.fast.reset_counters()
        return outcome

    def measure(self, accesses: Optional[int] = None) -> MeasureResult:
        """Run mains (for ``accesses`` each, or to generator completion)
        and return the window's observations."""
        self.fast.reset_counters()
        outcome = self._run(accesses)
        socket = self.fast.socket_counters(outcome.elapsed_ns)
        per_core = {c.core_id: socket.cores[c.core_id] for c in self._threads}
        finish = {
            core: ns - outcome.start_ns for core, ns in outcome.main_finish_ns.items()
        }
        return MeasureResult(
            elapsed_ns=outcome.elapsed_ns,
            makespan_ns=outcome.makespan_ns,
            core_counters=per_core,
            socket=socket,
            main_cores=self.main_cores,
            main_finish_ns=finish,
            line_bytes=self.socket.line_bytes,
        )

    def run_to_completion(self) -> MeasureResult:
        """Measure with no budget: mains run until their generators end
        (application workloads)."""
        return self.measure(accesses=None)

    # -- inspection --------------------------------------------------------------

    def l3_occupancy_by_owner(self) -> Dict[int, int]:
        return self.fast.l3_occupancy_by_owner()

    def l3_resident_count(self) -> int:
        return self.fast.l3_resident_count()

    def thread_on_core(self, core: int) -> SimThread:
        for c in self._threads:
            if c.core_id == core:
                return c.thread
        raise KeyError(f"no thread on core {core}")
