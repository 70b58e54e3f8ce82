"""Multi-socket NUMA node simulation.

The paper's testbed is a 2-socket Xeon E5-2670 node, and the MCB/Lulesh
mapping sweeps (Figs. 10-12) are fundamentally about *process placement
across sockets*. :class:`NodeSimulator` opens that scenario space: it
composes ``n_sockets`` independent socket domains — each with its own
private L1/L2s, shared L3 tag store and DRAM-link
:class:`~repro.mem.bandwidth.BandwidthArbiter` — joined by a QPI-style
inter-socket link with its own arbiter and a remote-access latency
penalty (DESIGN decision 12).

Core ids are node-global and socket-major: core ``s * n_cores + c`` is
local core ``c`` of socket ``s``. Threads pin to sockets either
explicitly (``add_thread(..., socket=1)``) or block-wise via a
:class:`~repro.cluster.mapping.ProcessMapping` (:meth:`add_ranks`).

Memory model (the STREAM-NUMA asymmetry):

- every page has a *home socket*, assigned by the address space's
  placement policy (first-touch or interleave, see
  :mod:`repro.mem.addrspace`); ``add_thread(..., home_socket=...)``
  overrides first-touch for one thread's allocations (the simulator's
  ``numactl --membind``);
- caches are requestor-side: a core's accesses run through *its own
  socket's* hierarchy regardless of where the lines are homed (remote
  lines are cached locally, as on real hardware);
- a demand fill whose line is homed elsewhere occupies the home socket's
  DRAM link too (as asynchronous traffic — it raises that link's offered
  load and therefore delays the home socket's own misses), crosses the
  inter-socket link (queueing via its arbiter) and pays
  ``NodeConfig.remote_penalty_ns``. Which of a chunk's misses were
  remote is attributed by the chunk's remote-access fraction with a
  deterministic largest-remainder carry, because the per-socket kernels
  count misses without recording addresses.

Execution: when every socket kernel is an
:class:`~repro.engine.arraypath.ArraySocket`, the scheduler binds the
compiled ``sched_step`` to the node, and C's ``node_chunk`` runs the
page-home lookup, the remote-fill attribution and the inter-socket link
for every chunk, so a node window is one C loop as a lone socket's is.
:meth:`NodeKernel.run_chunk` is the same step in Python, line for line:
the chunk-at-a-time reference, and the path of the list kernel on hosts
without a C compiler. ``tests/engine/test_node_differential.py`` holds
the compiled step, the Python macro-step and the chunk-at-a-time loop
bit-identical on random 2- and 3-socket nodes.

Equivalence gate: a **1-socket node is bit-identical to**
:class:`~repro.engine.socket_sim.SocketSimulator` — same counters as
integers, same finish times as floats — under both macro-step paths
(``tests/engine/test_node_equivalence.py``). Both steps pass a
1-socket node's chunks straight to the socket kernel, so the
single-socket case cannot drift.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ..config import NodeConfig, SocketConfig
from ..errors import SimulationError
from ..mem.addrspace import AddressSpace
from ..mem.counters import COLUMN, SocketCounters
from .arraypath import _ArbiterView, make_socket_kernel
from .results import NodeMeasureResult
from .scheduler import CoreState, Scheduler, ScheduleOutcome
from .thread import SimThread, ThreadContext


class NodeKernel:
    """Socket-kernel facade over ``n_sockets`` per-socket kernels.

    Exposes the same ``run_chunk``/``reset_counters`` contract the
    :class:`~repro.engine.scheduler.Scheduler` drives, with node-global
    core ids; dispatches each chunk to the owning socket's kernel and
    charges cross-socket costs on the way out, into that kernel's counter
    rows for the core. When every socket kernel is an array socket the
    scheduler binds the compiled ``sched_step`` to the node, whose C
    ``node_chunk`` mirrors :meth:`run_chunk` line for line; this method
    is the chunk-at-a-time reference and the list kernel's path.
    """

    def __init__(
        self,
        node: NodeConfig,
        addrspace: AddressSpace,
        track_owner: bool = False,
    ):
        self.node = node
        self.socket = node.socket
        self.n_sockets = node.n_sockets
        self.n_cores = node.cores_per_node
        self._cps = node.socket.n_cores
        self.addrspace = addrspace
        self.kernels = [
            make_socket_kernel(node.socket, track_owner=track_owner)
            for _ in range(node.n_sockets)
        ]
        #: Inter-socket (QPI-style) link arbiter, a register block the
        #: compiled node step charges in place.
        self.xlink = _ArbiterView(node.socket.line_bytes, node.link_bandwidth_Bps)
        #: Largest-remainder carry for the remote-fill attribution, one
        #: per global core (timing state, survives counter resets).
        self.remote_carry = np.zeros(self.n_cores, dtype=np.float64)

    # -- hot path -------------------------------------------------------------

    def run_chunk(self, core: int, chunk, now_ns: float) -> float:
        """Execute ``chunk`` on global ``core``; returns the completion
        time including any cross-socket charges."""
        s, local = divmod(core, self._cps)
        kern = self.kernels[s]
        if self.n_sockets == 1:
            # Single-socket node: the facade must be a pure pass-through
            # (the bit-identity gate vs. SocketSimulator).
            return kern.run_chunk(local, chunk, now_ns)

        lines = np.asarray(chunk.lines, dtype=np.int64)
        homes = self.addrspace.homes_of_lines(lines)
        n_remote = int(np.count_nonzero(homes != s))
        if n_remote == 0:
            return kern.run_chunk(local, chunk, now_ns)
        col = COLUMN
        counts = kern.counts[local]
        fills_before = int(counts[col.l3_misses] + counts[col.prefetch_fills])
        t = kern.run_chunk(local, chunk, now_ns)
        counts[col.remote_accesses] += n_remote
        fills = int(counts[col.l3_misses] + counts[col.prefetch_fills]) - fills_before
        if fills == 0:
            return t
        # Attribute this chunk's fills to remote homes by the chunk's
        # remote-access fraction, with a per-core carry so the long-run
        # remote fill count converges to the exact fraction.
        x = fills * (n_remote / lines.size) + float(self.remote_carry[core])
        n_rf = int(x)
        self.remote_carry[core] = x - n_rf
        if n_rf == 0:
            return t
        # The dominant home of this chunk's remote lines absorbs the
        # cross-traffic (per-line routing would need per-miss addresses).
        remote_homes = homes[homes != s]
        home = int(np.bincount(remote_homes, minlength=self.n_sockets).argmax())
        home_arb = self.kernels[home].arbiter
        extra = n_rf * self.node.remote_penalty_ns
        for _ in range(n_rf):
            # Cross the inter-socket link (demand: the miss stalls on it)
            # and occupy the home socket's DRAM link as asynchronous
            # traffic — raising its offered load without double-charging
            # this core the home link's controller delay.
            extra += self.xlink.request_fill(t)
            home_arb.request_fill(t, demand=False)
        t += extra
        counts[col.remote_fills] += n_rf
        times = kern.times[local]
        times[col.remote_ns] += extra
        times[col.stall_ns] += extra
        times[col.elapsed_ns] += extra
        return t

    # -- scheduler contract ----------------------------------------------------

    def ensure_line_capacity(self, lines: np.ndarray) -> None:
        """Pre-grow every socket kernel's dirty bitmap for a staged
        block (any socket may consume remote lines into its caches)."""
        for kern in self.kernels:
            if hasattr(kern, "ensure_line_capacity"):
                kern.ensure_line_capacity(lines)

    def reserve_lines(self, n_lines: int) -> None:
        """Size every socket kernel's dirty bitmap for line addresses
        below ``n_lines`` (any socket may cache any line)."""
        for kern in self.kernels:
            kern.reserve_lines(n_lines)

    def reset_counters(self) -> None:
        for kern in self.kernels:
            kern.reset_counters()
        self.xlink.reset_counters()

    def flush_caches(self) -> None:
        for kern in self.kernels:
            if hasattr(kern, "flush_caches"):
                kern.flush_caches()

    # -- inspection -------------------------------------------------------------

    def socket_counters(self, elapsed_ns: float) -> List[SocketCounters]:
        """Per-socket aggregate snapshots over a window."""
        return [k.socket_counters(elapsed_ns) for k in self.kernels]

    def l3_resident_count(self, socket_idx: Optional[int] = None) -> int:
        if socket_idx is not None:
            return self.kernels[socket_idx].l3_resident_count()
        return sum(k.l3_resident_count() for k in self.kernels)

    def l3_occupancy_by_owner(self, socket_idx: int = 0) -> Dict[int, int]:
        """Occupancy of one socket's L3, keyed by *local* core id."""
        return self.kernels[socket_idx].l3_occupancy_by_owner()


class NodeSimulator:
    """Multi-socket sibling of
    :class:`~repro.engine.socket_sim.SocketSimulator`.

    Same lifecycle (``add_thread`` -> ``warmup`` -> ``measure``), plus
    socket pinning, page placement and the inter-socket link. A 1-socket
    node reproduces ``SocketSimulator`` bit-for-bit.
    """

    def __init__(
        self,
        node: NodeConfig,
        seed: int = 0,
        track_owner: bool = False,
        placement: str = "first_touch",
    ):
        self.node = node
        self.socket: SocketConfig = node.socket
        self.seed = seed
        self.addrspace = AddressSpace(
            line_bytes=node.socket.line_bytes,
            n_domains=node.n_sockets,
            placement=placement,
            page_bytes=node.page_bytes,
        )
        self.fast = NodeKernel(node, self.addrspace, track_owner=track_owner)
        self._threads: List[CoreState] = []
        #: Per-thread placement overrides (global core id -> home socket).
        self._home_override: Dict[int, int] = {}
        self._started = False
        self._scheduler: Optional[Scheduler] = None
        self._next_core = [s * node.socket.n_cores for s in range(node.n_sockets)]
        self._clock_ns = 0.0

    # -- roster ---------------------------------------------------------------

    def add_thread(
        self,
        thread: SimThread,
        socket: int = 0,
        core: Optional[int] = None,
        main: bool = False,
        home_socket: Optional[int] = None,
    ) -> int:
        """Register a thread; returns the *global* core it was pinned to.

        ``socket`` picks the socket (next free core there) when ``core``
        is not given explicitly; ``core`` is a node-global id and wins.
        ``home_socket`` forces the thread's first-touch allocations onto
        that socket (membind-style remote placement).
        """
        if self._started:
            raise SimulationError("cannot add threads after the run started")
        cps = self.node.socket.n_cores
        if core is None:
            if not 0 <= socket < self.node.n_sockets:
                raise SimulationError(
                    f"socket {socket} out of range: node has "
                    f"{self.node.n_sockets} sockets"
                )
            core = self._next_core[socket]
            if core >= (socket + 1) * cps:
                raise SimulationError(f"socket {socket} has no free cores")
        if not 0 <= core < self.node.cores_per_node:
            raise SimulationError(
                f"core {core} out of range: node has "
                f"{self.node.cores_per_node} cores"
            )
        used = {c.core_id for c in self._threads}
        if core in used:
            raise SimulationError(f"core {core} already occupied")
        s = core // cps
        self._next_core[s] = max(self._next_core[s], core + 1)
        if home_socket is not None:
            if not 0 <= home_socket < self.node.n_sockets:
                raise SimulationError(f"home socket {home_socket} out of range")
            self._home_override[core] = home_socket
        state = CoreState(core_id=core, thread=thread, gen=iter(()), is_main=main)
        self._threads.append(state)
        return core

    def add_ranks(
        self,
        mapping,
        thread_factory,
        main: bool = True,
    ) -> List[int]:
        """Pin one thread per rank of a
        :class:`~repro.cluster.mapping.ProcessMapping` block placement.

        The mapping must fit on this node (its first ``n_ranks`` sockets
        are this node's). ``thread_factory(rank)`` builds each thread;
        returns the global core ids in rank order.
        """
        if mapping.sockets_used > self.node.n_sockets:
            raise SimulationError(
                f"mapping needs {mapping.sockets_used} sockets; node has "
                f"{self.node.n_sockets}"
            )
        cores = []
        for rank in range(mapping.n_ranks):
            cores.append(
                self.add_thread(
                    thread_factory(rank),
                    socket=mapping.socket_of(rank),
                    main=main,
                )
            )
        return cores

    @property
    def main_cores(self) -> List[int]:
        return [c.core_id for c in self._threads if c.is_main]

    def socket_of_core(self, core: int) -> int:
        return self.node.socket_of_core(core)

    # -- lifecycle -------------------------------------------------------------

    def _start(self) -> None:
        """Start every thread (each allocates its buffers, first-touch
        homed on its socket), size the socket kernels' dirty bitmaps
        once from what they allocated, and build the scheduler."""
        if self._started:
            return
        if not any(c.is_main for c in self._threads):
            raise SimulationError("at least one thread must be main=True")
        cps = self.node.socket.n_cores
        for state in self._threads:
            sock = state.core_id // cps
            ctx = ThreadContext(
                socket=self.socket,
                addrspace=self.addrspace,
                rng=np.random.default_rng((self.seed, state.core_id)),
                core_id=state.core_id,
                socket_id=sock,
            )
            # First-touch: pages this thread allocates are homed on its
            # socket (or the membind override) for the span of start().
            # Threads get page-aligned arenas so no page straddles two
            # threads (single-socket nodes skip this: the allocator must
            # stay bit-identical to SocketSimulator's).
            if self.node.n_sockets > 1:
                self.addrspace.align_to_page()
            self.addrspace.set_touch_socket(
                self._home_override.get(state.core_id, sock)
            )
            state.thread.start(ctx)
            state.gen = state.thread.chunks()
        self.addrspace.set_touch_socket(0)
        # Every buffer is allocated now: size the dirty bitmaps once.
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
        """Run mains for ``accesses`` each, then discard all counters."""
        outcome = self._run(accesses)
        self.fast.reset_counters()
        return outcome

    def measure(self, accesses: Optional[int] = None) -> NodeMeasureResult:
        """Run mains (for ``accesses`` each, or to generator completion)
        and return the window's observations."""
        self.fast.reset_counters()
        outcome = self._run(accesses)
        per_socket = self.fast.socket_counters(outcome.elapsed_ns)
        cores = [c for sc in per_socket for c in sc.cores]
        per_core = {c.core_id: cores[c.core_id] for c in self._threads}
        finish = {
            core: ns - outcome.start_ns for core, ns in outcome.main_finish_ns.items()
        }
        # Aggregate bytes add up; aggregate busy time is the *mean* over
        # sockets so the node-level utilization reads "average DRAM-link
        # load" (n links can each be 100% busy — summing would trip the
        # over-unity accounting alarm on correct data). Per-link figures
        # are in per_socket.
        aggregate = SocketCounters(
            cores=cores,
            link_fill_bytes=sum(sc.link_fill_bytes for sc in per_socket),
            link_writeback_bytes=sum(sc.link_writeback_bytes for sc in per_socket),
            link_busy_ns=sum(sc.link_busy_ns for sc in per_socket)
            / self.node.n_sockets,
            elapsed_ns=outcome.elapsed_ns,
        )
        return NodeMeasureResult(
            elapsed_ns=outcome.elapsed_ns,
            makespan_ns=outcome.makespan_ns,
            core_counters=per_core,
            socket=aggregate,
            main_cores=self.main_cores,
            main_finish_ns=finish,
            line_bytes=self.socket.line_bytes,
            per_socket=per_socket,
            xlink_fill_bytes=self.fast.xlink.fill_bytes,
            xlink_busy_ns=self.fast.xlink.busy_ns,
            remote_penalty_ns=self.node.remote_penalty_ns,
        )

    def run_to_completion(self) -> NodeMeasureResult:
        """Measure with no budget: mains run until their generators end."""
        return self.measure(accesses=None)

    # -- inspection --------------------------------------------------------------

    def thread_on_core(self, core: int) -> SimThread:
        for c in self._threads:
            if c.core_id == core:
                return c.thread
        raise KeyError(f"no thread on core {core}")
