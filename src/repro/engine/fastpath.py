"""Fused single-socket simulation kernel (reference list implementation).

A single tuned Python loop that pushes one
:class:`~repro.engine.chunk.AccessChunk` through L1 -> L2 -> shared L3 ->
DRAM, charging time, feeding the stride prefetcher and reserving
DRAM-link slots. This is the *reference* kernel and the fallback on
hosts without a C compiler: where the C kernel loads, simulators run the
array-native :class:`~repro.engine.arraypath.ArraySocket`, which is
cross-validated bit-for-bit against this one and several times faster.

Semantics are identical to the reference composition in
:mod:`repro.mem.hierarchy` under LRU (cross-validated by
``tests/engine/test_fastpath_equivalence.py``); the implementation style —
per-set recency lists holding full line addresses, local-variable
hoisting, membership via list scans — is what buys the ~10x over the
object-based reference and follows the profiling-first guidance of the
HPC-Python guides (optimize the measured bottleneck, keep everything
else clear).

Timing model per access (all from :class:`~repro.config.TimingConfig`):

=========================  ================================================
where it hit               charged stall
=========================  ================================================
L1                         ``l1_hit_ns``
L2                         ``l2_hit_ns`` (staged lines also wait for their
                           link *arrival time* if it has not passed)
L3 (demand-fetched)        ``l3_hit_ns``
L3 (staged, evicted L2)    ``prefetch_hit_ns`` + arrival wait
DRAM                       ``dram_latency_ns / mlp`` + link queueing delay
=========================  ================================================

plus ``ops_per_access * ns_per_op`` of compute before every access.

The prefetcher watches the L2-miss stream of ``prefetchable`` chunks: it
pulls L3-resident stream lines into L2 for free and fetches absent lines
from DRAM, staging them in both the shared L3 (capacity cost) and the
issuing core's L2. Prefetch fills are asynchronous — they reserve link
slots but do not stall the core directly; instead each staged line gets
an *arrival time* (issue + DRAM latency + queueing + serialized slot),
and a core that consumes the line earlier waits for it. This is the
mechanism by which bandwidth pressure throttles prefetch-covered
streams, and queueing on demand misses is how interference degrades
random-access victims.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import SocketConfig
from ..mem.bandwidth import BandwidthArbiter
from ..mem.counters import (
    COLUMN, CoreCounters, SocketCounters, core_counters, counter_matrices,
)
from ..mem.prefetch import StridePrefetcher
from .chunk import AccessChunk


class FastSocket:
    """Mutable simulation state for one socket.

    Parameters
    ----------
    socket:
        Machine description (geometry, timing, prefetch, bandwidth).
    track_owner:
        Maintain a last-toucher owner tag per resident L3 line so
        :meth:`l3_occupancy_by_owner` can attribute shared-cache capacity
        (used by the orthogonality ablations). Costs ~20% throughput.
    """

    def __init__(self, socket: SocketConfig, track_owner: bool = False):
        self.socket = socket
        n = socket.n_cores
        line_shift = socket.l1.line_shift

        def empty_sets(n_sets: int) -> List[List[int]]:
            return [[] for _ in range(n_sets)]

        # Per-core private levels; per-set recency lists of line addresses
        # (MRU at the end).
        self._l1 = [empty_sets(socket.l1.n_sets) for _ in range(n)]
        self._l2 = [empty_sets(socket.l2.n_sets) for _ in range(n)]
        self._l3 = empty_sets(socket.l3.n_sets)
        self._l3_owner: Optional[List[List[int]]] = (
            empty_sets(socket.l3.n_sets) if track_owner else None
        )
        self._l1_mask = socket.l1.n_sets - 1
        self._l2_mask = socket.l2.n_sets - 1
        self._l3_mask = socket.l3.n_sets - 1
        self._l1_ways = socket.l1.ways
        self._l2_ways = socket.l2.ways
        self._l3_ways = socket.l3.ways
        self._line_shift = line_shift

        #: L3-level dirty-line set (see note in :meth:`run_chunk`).
        self._dirty: set[int] = set()
        #: Lines staged by the prefetcher and not yet demand-touched,
        #: mapped to their *arrival time*: the simulated instant the line
        #: transfer completes. A core that reaches a staged line before
        #: it has arrived stalls until it does — this is how bandwidth
        #: pressure throttles prefetch-covered streams.
        self._prefetched: dict[int, float] = {}

        self.arbiter = BandwidthArbiter(socket)
        self.prefetchers = [StridePrefetcher(socket.prefetch) for _ in range(n)]
        #: Counter matrices, one row per core, as in the array kernel.
        self.counts, self.times = counter_matrices(n)

        t = socket.timing
        self._ns_per_op = t.ns_per_op
        self._l1_ns = t.l1_hit_ns
        self._l2_ns = t.l2_hit_ns
        self._l3_ns = t.l3_hit_ns
        self._pf_ns = t.prefetch_hit_ns
        self._dram_ns = t.dram_latency_ns / t.mlp
        self._dram_serial_ns = t.dram_latency_ns

    # -- hot loop ------------------------------------------------------------

    def run_chunk(self, core: int, chunk: AccessChunk, now_ns: float) -> float:
        """Execute ``chunk`` on ``core`` starting at ``now_ns``.

        Returns the simulated completion time. The core's counter rows
        are updated in bulk at the end of the chunk.

        Dirtiness is tracked at L3 granularity only: every write access
        marks its line dirty; a clean refetch clears the mark. Private
        write-back traffic (L1->L2, L2->L3) is architecturally invisible
        to the DRAM link and is not modelled.
        """
        # Hoist state into locals: inner-loop attribute lookups are the
        # dominant cost in CPython.
        l1_sets = self._l1[core]
        l2_sets = self._l2[core]
        l3_sets = self._l3
        owners = self._l3_owner
        l1_mask, l2_mask, l3_mask = self._l1_mask, self._l2_mask, self._l3_mask
        l1_ways, l2_ways, l3_ways = self._l1_ways, self._l2_ways, self._l3_ways
        dirty = self._dirty
        prefetched = self._prefetched
        prefetched_pop = prefetched.pop
        arbiter_fill = self.arbiter.request_fill
        arbiter_wb = self.arbiter.note_writeback
        observe_miss = self.prefetchers[core].observe_miss

        ops_ns = chunk.ops_per_access * self._ns_per_op
        l1_ns, l2_ns, l3_ns = self._l1_ns, self._l2_ns, self._l3_ns
        pf_ns = self._pf_ns
        dram_ns = self._dram_serial_ns if chunk.serialize else self._dram_ns
        service_ns = self.arbiter.service_ns
        w = chunk.is_write
        sid = chunk.stream_id
        pf_on = chunk.prefetchable

        t = now_ns + chunk.extra_ns
        n_l1 = n_l2 = n_l3 = n_pf = n_miss = n_pfill = n_wb = 0

        # Chunks carry int64 ndarrays (zero-copy for the array kernel);
        # one tolist() per chunk is cheaper than iterating np scalars.
        lines = chunk.lines
        if not isinstance(lines, list):
            lines = lines.tolist()

        for a in lines:
            t += ops_ns
            lst1 = l1_sets[a & l1_mask]
            if a in lst1:
                t += l1_ns
                n_l1 += 1
                if lst1[-1] != a:
                    lst1.remove(a)
                    lst1.append(a)
                if w:
                    dirty.add(a)
                continue
            lst2 = l2_sets[a & l2_mask]
            if a in lst2:
                t += l2_ns
                n_l2 += 1
                if prefetched:
                    arrival = prefetched_pop(a, None)
                    if arrival is not None:
                        n_pf += 1
                        n_l2 -= 1
                        if arrival > t:
                            t = arrival
                if lst2[-1] != a:
                    lst2.remove(a)
                    lst2.append(a)
            else:
                s3 = a & l3_mask
                lst3 = l3_sets[s3]
                if a in lst3:
                    arrival = prefetched_pop(a, None) if prefetched else None
                    if arrival is not None:
                        t += pf_ns
                        if arrival > t:
                            t = arrival
                        n_pf += 1
                    else:
                        t += l3_ns
                        n_l3 += 1
                    if owners is None:
                        if lst3[-1] != a:
                            lst3.remove(a)
                            lst3.append(a)
                    else:
                        olst = owners[s3]
                        i = lst3.index(a)
                        del lst3[i]
                        del olst[i]
                        lst3.append(a)
                        olst.append(core)
                else:
                    # Demand miss: stall for DRAM + link queueing.
                    n_miss += 1
                    t += dram_ns + arbiter_fill(t)
                    lst3.append(a)
                    if owners is not None:
                        owners[s3].append(core)
                    if len(lst3) > l3_ways:
                        victim = lst3.pop(0)
                        if owners is not None:
                            del owners[s3][0]
                        prefetched_pop(victim, None)
                        if victim in dirty:
                            dirty.discard(victim)
                            arbiter_wb(t)
                            n_wb += 1
                    if not w:
                        dirty.discard(a)
                # The (L2-level) prefetcher watches the whole L2-miss
                # stream: it pulls L3-resident stream lines into L2 for
                # free and fetches absent lines from DRAM, staging them
                # in both L3 (capacity cost) and the core's L2 (so a
                # stream survives shared-L3 churn — Fig. 7's flatness).
                if pf_on:
                    k_fill = 0
                    for p in observe_miss(a, sid):
                        sp = p & l3_mask
                        lstp = l3_sets[sp]
                        if p not in lstp:
                            delay = arbiter_fill(t, False)  # async
                            k_fill += 1
                            n_pfill += 1
                            lstp.append(p)
                            # Arrival: DRAM latency + queueing + this
                            # fill's serialized slot on the link.
                            prefetched[p] = (
                                t + dram_ns + delay + k_fill * service_ns
                            )
                            if owners is not None:
                                owners[sp].append(core)
                            if len(lstp) > l3_ways:
                                v = lstp.pop(0)
                                if owners is not None:
                                    del owners[sp][0]
                                prefetched_pop(v, None)
                                if v in dirty:
                                    dirty.discard(v)
                                    arbiter_wb(t)
                                    n_wb += 1
                        lstp2 = l2_sets[p & l2_mask]
                        if p not in lstp2:
                            lstp2.append(p)
                            if len(lstp2) > l2_ways:
                                del lstp2[0]
                # Fill L2 (mostly-inclusive; private eviction is silent).
                lst2.append(a)
                if len(lst2) > l2_ways:
                    del lst2[0]
            # Fill L1.
            lst1.append(a)
            if len(lst1) > l1_ways:
                del lst1[0]
            if w:
                dirty.add(a)

        n = len(lines)
        c, col = self.counts[core], COLUMN
        c[col.accesses] += n
        c[col.l1_hits] += n_l1
        c[col.l2_hits] += n_l2
        c[col.l3_hits] += n_l3
        c[col.prefetch_hits] += n_pf
        c[col.l3_misses] += n_miss
        c[col.prefetch_fills] += n_pfill
        c[col.writebacks] += n_wb
        c[col.compute_ops] += n * chunk.ops_per_access
        f = self.times[core]
        f[col.compute_ns] += n * ops_ns
        f[col.offsocket_ns] += chunk.extra_ns
        f[col.stall_ns] += (t - now_ns) - n * ops_ns - chunk.extra_ns
        f[col.elapsed_ns] += t - now_ns
        return t

    # -- inspection / control -------------------------------------------------

    def l3_resident_count(self) -> int:
        """Number of lines currently resident in the shared L3."""
        return sum(len(s) for s in self._l3)

    def l3_occupancy_by_owner(self) -> Dict[int, int]:
        """L3 lines held per core (requires ``track_owner=True``)."""
        if self._l3_owner is None:
            raise ValueError("FastSocket was created without track_owner")
        counts: Dict[int, int] = {}
        for olst in self._l3_owner:
            for o in olst:
                counts[o] = counts.get(o, 0) + 1
        return counts

    def l3_contains(self, line_addr: int) -> bool:
        return line_addr in self._l3[line_addr & self._l3_mask]

    @property
    def counters(self) -> List[CoreCounters]:
        """Every core's counters as :class:`CoreCounters` values, read
        from the matrices (a copy: later chunks do not change it)."""
        return core_counters(self.counts, self.times)

    def reserve_lines(self, n_lines: int) -> None:
        """Nothing to size: dirty lines are a set here (the array
        kernel sizes its dirty bitmap in this call)."""

    def reset_counters(self) -> None:
        """Zero all event counters, keeping cache/link state (used to
        separate warm-up from the measurement window)."""
        self.counts.fill(0)
        self.times.fill(0.0)
        self.arbiter.reset_counters()

    def flush_caches(self) -> None:
        """Empty every cache level and prefetcher (cold restart)."""
        for core_sets in self._l1:
            for s in core_sets:
                s.clear()
        for core_sets in self._l2:
            for s in core_sets:
                s.clear()
        for s in self._l3:
            s.clear()
        if self._l3_owner is not None:
            for s in self._l3_owner:
                s.clear()
        self._dirty.clear()
        self._prefetched.clear()
        for pf in self.prefetchers:
            pf.reset()

    def socket_counters(self, elapsed_ns: float) -> SocketCounters:
        """Aggregate snapshot over a window of ``elapsed_ns``."""
        return SocketCounters(
            cores=self.counters,
            link_fill_bytes=self.arbiter.fill_bytes,
            link_writeback_bytes=self.arbiter.writeback_bytes,
            link_busy_ns=self.arbiter.busy_ns,
            elapsed_ns=elapsed_ns,
        )
