"""Per-core performance counters.

These play the role of the hardware performance counters the paper reads
(Section III-A): L3 miss counts for Eq. 1 bandwidth accounting, per-level
hit/miss rates, and elapsed time.

A socket kernel keeps its cores' counters in two matrices with one row
per core (:func:`counter_matrices`), which the compiled loop updates in
place: an ``int64`` matrix of event counts, columns :data:`COUNT_FIELDS`,
and a ``float64`` matrix of simulated times in ns, columns
:data:`TIME_FIELDS`. The column order is defined here; Python writers
index the matrices through :data:`COLUMN`, and the C adds of
:mod:`repro.engine._ckernel` follow the same order. A window's values
come out of the matrices once, as plain :class:`CoreCounters` values
(:func:`core_counters`), which :class:`SocketCounters` aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import List, Tuple

import numpy as np


@dataclass
class CoreCounters:
    """Event counts for one core since the last reset: the count fields
    first and the time fields after them, each in column order, so one
    row pair builds a value positionally."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    #: Demand accesses that hit a line staged by the prefetcher (they are
    #: L3 hits from the hardware's perspective; kept separate so prefetch
    #: coverage is observable).
    prefetch_hits: int = 0
    l3_misses: int = 0
    #: Lines brought in by the prefetcher on this core's behalf.
    prefetch_fills: int = 0
    writebacks: int = 0
    compute_ops: int = 0
    #: Accesses whose line is homed on another socket of the node
    #: (page-placement accounting; 0 on single-socket simulations).
    remote_accesses: int = 0
    #: DRAM fills served by a remote socket — each crossed the
    #: inter-socket link and paid the node's remote-access penalty.
    remote_fills: int = 0
    #: Simulated time attributed to memory stalls / compute, in ns.
    stall_ns: float = 0.0
    compute_ns: float = 0.0
    #: Time spent on cross-socket transfers (remote penalty + inter-
    #: socket link queueing); a subset of ``stall_ns``.
    remote_ns: float = 0.0
    #: Off-socket time (network waits, injected noise) spliced into the
    #: core's timeline by the cluster layer.
    offsocket_ns: float = 0.0
    #: Simulated wall-clock span covered by these counters, in ns.
    elapsed_ns: float = 0.0

    @property
    def l3_accesses(self) -> int:
        """Accesses that reached the L3 (missed both private levels)."""
        return self.l3_hits + self.prefetch_hits + self.l3_misses

    @property
    def l3_miss_rate(self) -> float:
        """L3 misses over L3 accesses — the counter the paper's Eq. 4
        inversion consumes."""
        n = self.l3_accesses
        return self.l3_misses / n if n else 0.0

    def bandwidth_Bps(self, line_bytes: int) -> float:
        """Eq. 1: BW = line_size * #L3 misses / execution time.

        Prefetch fills are included, as they are real DRAM traffic and the
        hardware counter the paper reads (LLC misses) counts them.
        """
        if self.elapsed_ns <= 0:
            return 0.0
        fills = self.l3_misses + self.prefetch_fills
        return fills * line_bytes / (self.elapsed_ns * 1e-9)

    @property
    def remote_fraction(self) -> float:
        """Fraction of accesses that touched remote-homed lines."""
        return self.remote_accesses / self.accesses if self.accesses else 0.0


#: Columns of a kernel's ``int64`` count matrix, in order.
COUNT_FIELDS = (
    "accesses", "l1_hits", "l2_hits", "l3_hits", "prefetch_hits",
    "l3_misses", "prefetch_fills", "writebacks", "compute_ops",
    "remote_accesses", "remote_fills",
)
#: Columns of a kernel's ``float64`` time matrix (simulated ns), in order.
TIME_FIELDS = ("stall_ns", "compute_ns", "remote_ns", "offsocket_ns", "elapsed_ns")
#: Column index of every field in its matrix (``COLUMN.l3_misses``).
COLUMN = SimpleNamespace(
    **{name: j for names in (COUNT_FIELDS, TIME_FIELDS) for j, name in enumerate(names)}
)


def counter_matrices(n_cores: int) -> Tuple[np.ndarray, np.ndarray]:
    """A kernel's zeroed count and time matrices, one row per core."""
    return (np.zeros((n_cores, len(COUNT_FIELDS)), dtype=np.int64),
            np.zeros((n_cores, len(TIME_FIELDS)), dtype=np.float64))


def core_counters(counts: np.ndarray, times: np.ndarray) -> List[CoreCounters]:
    """One :class:`CoreCounters` value per row of a kernel's count and
    time matrices. ``tolist`` makes every field a Python ``int`` or
    ``float``, so values compare, print and pickle like hand-built ones."""
    return [CoreCounters(*c, *t) for c, t in zip(counts.tolist(), times.tolist())]


@dataclass
class SocketCounters:
    """Aggregate view over a socket's cores plus shared-resource counters."""

    cores: List[CoreCounters] = field(default_factory=list)
    #: Total bytes moved over the L3<->DRAM link (fills; writebacks listed
    #: separately because the link model does not throttle them).
    link_fill_bytes: int = 0
    link_writeback_bytes: int = 0
    #: Time the link spent busy, for utilisation reports.
    link_busy_ns: float = 0.0
    #: Span of the measurement window.
    elapsed_ns: float = 0.0

    @property
    def total_l3_misses(self) -> int:
        return sum(c.l3_misses for c in self.cores)

    @property
    def total_accesses(self) -> int:
        return sum(c.accesses for c in self.cores)

    def link_utilization(self) -> float:
        """Fraction of the window the DRAM link was busy."""
        return self.link_busy_ns / self.elapsed_ns if self.elapsed_ns > 0 else 0.0

    def total_bandwidth_Bps(self, line_bytes: int) -> float:
        """Aggregate fill bandwidth over the measurement window."""
        if self.elapsed_ns <= 0:
            return 0.0
        return self.link_fill_bytes / (self.elapsed_ns * 1e-9)
