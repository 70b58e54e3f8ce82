"""Array-native single-socket simulation kernel.

:class:`ArraySocket` is a drop-in replacement for
:class:`~repro.engine.fastpath.FastSocket` (the reference list kernel)
that keeps every piece of mutable simulation state in flat, preallocated,
C-contiguous buffers:

- per-level **tag arrays** (``int64``, one slot per cache way, sets laid
  out consecutively) plus circular **recency lists**: ``int32``
  ``prev``/``next`` links per slot and an LRU head per set, whose
  ``prev`` is the MRU slot. The victim is the head; a fill writes it and
  advances the head, a hit moves its slot to the MRU end. Each list
  starts (and restarts, in :meth:`ArraySocket.flush_caches`) in slot
  order, so empty slots fill in slot order, which reproduces the list
  kernel's append-then-evict recency order exactly (cross-validated
  bit-for-bit by ``tests/engine/test_kernel_equivalence.py``);
- per-slot **tag fingerprints** (``uint8``) at L1 and L2, which the
  compiled lookups compare eight at a time before any full tag;
- an **L3 line index** (``int32``): a linear-probing table from line
  address to L3 slot, sized by the L3's slot count (a power of two with
  at least twice the slots), not by the range of line addresses;
- a **dirty bitmap** (``uint8``) indexed by line address, sized by the
  simulator once its threads have allocated (:meth:`ArraySocket.reserve_lines`)
  and grown on demand past that;
- **arrival slots** (``float64``, one per L3 way) replacing the staged-
  line dict: a line with a pending link transfer is always still
  L3-resident (staging inserts it; consumption or eviction pops it), so
  the arrival time can live with the L3 slot itself;
- small **register blocks** holding the bandwidth arbiter's controller
  state and the per-core stride-prefetcher stream tables, so the Python
  views (:class:`_ArbiterView`) and the compiled loop share one source of
  truth;
- the **counter matrices** ``counts`` (``int64``) and ``times``
  (``float64``), one row per core, columns in :mod:`repro.mem.counters`
  order, which the compiled code adds each chunk to in place. C holds
  their addresses, so they are zeroed in place and never rebound.

The hot loop over this state is a small C function compiled on first
use from :mod:`repro.engine._ckernel` (stdlib ``ctypes``, no build
dependency). It mirrors the list kernel's floating-point operation order
exactly (the C build disables FP contraction), so per-chunk finish times
and all event counters are bit-identical across kernels, not merely
within tolerance. Runs of repeated accesses to one line take a
*hit-streak fast path*: after the first L1 MRU hit the loop charges the
remaining repeats' time directly, skipping tag probes and LRU updates
they cannot change.

No object of a kernel sits in a reference cycle, so a point's kernel is
freed by reference counting the moment its simulator is dropped, not
whenever the cyclic garbage collector next runs. Its state is not: a
``weakref.finalize`` hands every array but the dirty bitmap, the ``KS``
struct and the DRAM link's registers to a one-slot spare, and the next
kernel of the same ``(SocketConfig, track_owner)`` takes it and resets
it (:meth:`ArraySocket.flush_caches`, :meth:`ArraySocket.reset_counters`
and the arbiter's registers) instead of allocating and building ~0.9 MB
afresh at every point. A recycled kernel equals a fresh one in every
output and every array the compiled code reads, the fingerprint bytes
of empty slots aside. The dirty bitmap is always fresh: recycling it
would mean clearing megabytes at every point.

Simulators get their kernel from :func:`make_socket_kernel`: this array
kernel when the C kernel loads, and the list kernel otherwise (no C
compiler, or ``REPRO_NO_CKERNEL=1``).
"""

from __future__ import annotations

import collections
import ctypes
import functools
import warnings
import weakref
from typing import Dict, List, Optional, Union

import numpy as np

from ..config import PrefetchConfig, SocketConfig
from ..errors import ConfigError
from ..mem.counters import (
    CoreCounters, SocketCounters, core_counters, counter_matrices,
)
from . import _ckernel
from .chunk import AccessChunk
from .fastpath import FastSocket

EMPTY_TAG = _ckernel.EMPTY_TAG

#: Initial dirty-bitmap capacity (line addresses); doubled on demand.
_DIRTY_CAP0 = 1 << 16

#: The state of the most recently freed :class:`ArraySocket` as
#: ``(key, state)``: its ``(SocketConfig, track_owner)`` and a map from
#: attribute name to its arrays, ``KS`` struct and arbiter registers. One
#: spare at a time; ``append`` (give back, dropping the older spare) and
#: ``pop`` (take) are each a single atomic operation, so kernels built and
#: freed on several threads at once never share a state.
_spare: "collections.deque" = collections.deque(maxlen=1)

# Arbiter register slots: regs (float64) and iregs (int64), as in C's ARB.
_A_HWM, _A_WSTART, _A_RHO, _A_RHO_S, _A_DELAY, _A_KNEE, _A_BUSY = range(7)
_AI_WCOUNT, _AI_WDEMAND, _AI_FILL_B, _AI_WB_B = range(4)


class _ArbiterView:
    """:class:`~repro.mem.bandwidth.BandwidthArbiter` API over a register
    block the compiled loop shares.

    The controller state lives in two small arrays that :attr:`struct`
    (the C ``ARB`` block) points at, so the compiled loop and this view
    always agree; :meth:`request_fill` is an exact transliteration of
    ``BandwidthArbiter.request_fill``, and C's ``arb_fill`` runs the same
    expressions natively. An array socket's DRAM link is one, and so is
    the node's inter-socket link in every mode: the compiled node step
    charges it in C, and the Python node step through this view.
    """

    WINDOW_FILLS = 512
    MIN_WINDOW_SPAN_NS = 16384.0
    DELAY_DAMPING = 0.7
    MAX_DELAY_SERVICES = 512.0

    def __init__(self, line_bytes: int, bandwidth_Bps: float,
                 throttle_writebacks: bool = False, registers=None):
        self.line_bytes = line_bytes
        self.capacity_Bps = bandwidth_Bps
        self.service_ns = line_bytes / bandwidth_Bps * 1e9
        if registers is None:
            registers = self.registers(line_bytes, bandwidth_Bps,
                                       throttle_writebacks)
        self._a, self._ai, self.struct = registers

    @classmethod
    def registers(cls, line_bytes: int, bandwidth_Bps: float,
                  throttle_writebacks: bool = False):
        """A zeroed register block ``(regs, iregs, struct)``: the two
        arrays and the C ``ARB`` struct pointing at them. A recycled
        kernel's view adopts its predecessor's block (``registers=``)."""
        a = np.zeros(7, dtype=np.float64)
        ai = np.zeros(4, dtype=np.int64)
        arb = _ckernel.ARBStruct()
        arb.regs, arb.iregs = a.ctypes.data, ai.ctypes.data
        arb.service_ns = line_bytes / bandwidth_Bps * 1e9
        arb.window_fills = cls.WINDOW_FILLS
        arb.min_window_span = cls.MIN_WINDOW_SPAN_NS
        arb.damping = cls.DELAY_DAMPING
        arb.max_delay_services = cls.MAX_DELAY_SERVICES
        arb.line_bytes = line_bytes
        arb.throttle_wb = 1 if throttle_writebacks else 0
        return a, ai, arb

    # -- counters (read via properties so the C loop's updates show) --------

    @property
    def busy_ns(self) -> float:
        return float(self._a[_A_BUSY])

    @property
    def fill_bytes(self) -> int:
        return int(self._ai[_AI_FILL_B])

    @property
    def writeback_bytes(self) -> int:
        return int(self._ai[_AI_WB_B])

    # -- core ---------------------------------------------------------------

    def request_fill(self, now_ns: float, demand: bool = True) -> float:
        a, ai = self._a, self._ai
        if now_ns > a[_A_HWM]:
            a[_A_HWM] = now_ns
        ai[_AI_WCOUNT] += 1
        if demand:
            ai[_AI_WDEMAND] += 1
        span = float(a[_A_HWM]) - float(a[_A_WSTART])
        if ai[_AI_WCOUNT] >= self.WINDOW_FILLS and span >= self.MIN_WINDOW_SPAN_NS:
            n = int(ai[_AI_WCOUNT])
            a[_A_RHO] = n * self.service_ns / span
            deficit_ns = n * self.service_ns - span
            correction = deficit_ns / max(int(ai[_AI_WDEMAND]), 1)
            delay = float(a[_A_DELAY]) + self.DELAY_DAMPING * correction
            max_delay = self.MAX_DELAY_SERVICES * self.service_ns
            a[_A_DELAY] = min(max(delay, 0.0), max_delay)
            rho_smooth = float(a[_A_RHO_S]) + 0.3 * (float(a[_A_RHO]) - float(a[_A_RHO_S]))
            a[_A_RHO_S] = rho_smooth
            rho_k = min(rho_smooth, 0.97)
            target = self.service_ns * rho_k * rho_k / (1.0 - rho_k)
            a[_A_KNEE] = float(a[_A_KNEE]) + 0.25 * (target - float(a[_A_KNEE]))
            a[_A_WSTART] = a[_A_HWM]
            ai[_AI_WCOUNT] = 0
            ai[_AI_WDEMAND] = 0
        a[_A_BUSY] += self.service_ns
        ai[_AI_FILL_B] += self.line_bytes
        return float(a[_A_DELAY]) + float(a[_A_KNEE])

    # -- inspection ---------------------------------------------------------

    def offered_rho(self) -> float:
        return float(self._a[_A_RHO])

    def current_delay_ns(self) -> float:
        return float(self._a[_A_DELAY]) + float(self._a[_A_KNEE])

    def utilization(self, window_ns: float) -> float:
        # Unclamped, matching BandwidthArbiter (DESIGN decision 10):
        # over-unity busy fractions are accounting errors and must show.
        return self.busy_ns / window_ns if window_ns > 0 else 0.0

    def reset_counters(self) -> None:
        self._a[_A_BUSY] = 0.0
        self._ai[_AI_FILL_B] = 0
        self._ai[_AI_WB_B] = 0

    def clear(self) -> None:
        """Zero every register, the controller's state included: the
        state of a new arbiter."""
        self._a.fill(0.0)
        self._ai.fill(0)


class _PrefetcherView:
    """Per-core view of the shared stream-table arrays (introspection
    parity with :class:`~repro.mem.prefetch.StridePrefetcher`). It holds
    the arrays, not the socket, so a socket is never in a reference cycle
    and is freed as soon as its simulator is dropped."""

    def __init__(self, config: PrefetchConfig, pf_count: np.ndarray,
                 pf_issued: np.ndarray, core: int):
        self.config = config
        self._count = pf_count
        self._issued = pf_issued
        self._core = core

    @property
    def issued_batches(self) -> int:
        return int(self._issued[self._core])

    def reset(self) -> None:
        self._count[self._core] = 0
        self._issued[self._core] = 0


@functools.lru_cache(maxsize=64)
def _recency_image(n_blocks: int, n_sets: int, ways: int):
    """The read-only ``(prev, next, head)`` int32 arrays of ``n_blocks``
    blocks of ``n_sets`` fresh sets, built once per geometry: every
    set's circular recency list in slot order, way 0 at the LRU head and
    the last way, ``prev[head]``, at the MRU end. A fill writes the head
    slot and advances head past it, so empty slots fill in slot order,
    as the list kernel appends."""
    slots, sets = n_blocks * n_sets * ways, n_blocks * n_sets
    prev = np.empty(slots, dtype=np.int32)
    nxt = np.empty(slots, dtype=np.int32)
    head = np.empty(sets, dtype=np.int32)
    # Views with one row of sets per block (per core at L1 and L2).
    p, x = prev.reshape(-1, n_sets, ways), nxt.reshape(-1, n_sets, ways)
    slot = np.arange(n_sets * ways, dtype=np.int32).reshape(n_sets, ways)
    p[...] = slot - 1
    p[:, :, 0] = slot[:, -1]
    x[...] = slot + 1
    x[:, :, -1] = slot[:, 0]
    head.reshape(-1, n_sets)[...] = slot[:, 0]
    for a in (prev, nxt, head):
        a.flags.writeable = False
    return prev, nxt, head


def _recency_lists(n_blocks: int, n_sets: int, ways: int):
    """Writable ``(prev, next, head)`` arrays for ``n_blocks`` blocks of
    ``n_sets`` sets, in the fresh order of :func:`_recency_image`."""
    return tuple(a.copy() for a in _recency_image(n_blocks, n_sets, ways))


def _reset_recency(lru, n_sets: int, ways: int) -> None:
    """Put every set's circular recency list back in slot order by
    copying the geometry's cached :func:`_recency_image`."""
    image = _recency_image(lru[2].size // n_sets, n_sets, ways)
    for dst, src in zip(lru, image):
        np.copyto(dst, src)


def _new_state(socket: SocketConfig, track_owner: bool) -> Dict[str, object]:
    """A fresh kernel's recyclable state, keyed by :class:`ArraySocket`
    attribute name: cache, index, prefetcher and counter arrays and the
    DRAM link's register block (``KS`` and its pointer join on first
    use). Everything a kernel keeps but its dirty bitmap."""
    n = socket.n_cores
    s1, w1 = socket.l1.n_sets, socket.l1.ways
    s2, w2 = socket.l2.n_sets, socket.l2.ways
    s3, w3 = socket.l3.n_sets, socket.l3.ways
    ns = socket.prefetch.n_streams
    counts, times = counter_matrices(n)
    state: Dict[str, object] = {
        "_tags1": np.full(n * s1 * w1, EMPTY_TAG, dtype=np.int64),
        "_lru1": _recency_lists(n, s1, w1),
        "_tags2": np.full(n * s2 * w2, EMPTY_TAG, dtype=np.int64),
        "_lru2": _recency_lists(n, s2, w2),
        # Tag fingerprints, read eight at a time: 7 bytes of padding keep
        # the last set's reads inside the array. An empty slot's byte is
        # never trusted (its tag decides), so flushes leave them.
        "_fp1": np.zeros(n * s1 * w1 + 7, dtype=np.uint8),
        "_fp2": np.zeros(n * s2 * w2 + 7, dtype=np.uint8),
        "_tags3": np.full(s3 * w3, EMPTY_TAG, dtype=np.int64),
        "_lru3": _recency_lists(1, s3, w3),
        # L3 line -> slot index: a power of two with at least twice the
        # L3 slots, so linear probes stay short (-1 = empty bucket).
        "_idx3": np.full(1 << (2 * s3 * w3 - 1).bit_length(), -1, dtype=np.int32),
        "_owner3": np.full(s3 * w3, -1, dtype=np.int64) if track_owner else None,
        "_arrival3": np.full(s3 * w3, -1.0, dtype=np.float64),
        # [0]=pending staged-line count.
        "_iregs": np.zeros(1, dtype=np.int64),
        "counts": counts,
        "times": times,
        "_arb_regs": _ArbiterView.registers(
            socket.line_bytes, socket.dram_bandwidth_Bps,
            socket.throttle_writebacks),
    }
    for name in _PF_TABLES:
        state[name] = np.zeros(n * ns, dtype=np.int64)
    state["_pf_count"] = np.zeros(n, dtype=np.int64)
    state["_pf_issued"] = np.zeros(n, dtype=np.int64)
    return state


#: The per-core stream-table arrays of the prefetcher (``n_streams``
#: entries per core), in ``KS`` order.
_PF_TABLES = ("_pf_sid", "_pf_last", "_pf_stride", "_pf_streak",
              "_pf_expected", "_pf_order")


def _take_spare(key) -> Optional[Dict[str, object]]:
    """Take the spare state if it has shape ``key``; a spare of another
    shape is dropped (the kernel that misses frees its own state as the
    next spare)."""
    try:
        spare_key, state = _spare.pop()
    except IndexError:
        return None
    return state if spare_key == key else None


class ArraySocket:
    """Array-native socket kernel; public API matches ``FastSocket``.

    Parameters
    ----------
    socket:
        Machine description (geometry, timing, prefetch, bandwidth).
    track_owner:
        Maintain a last-toucher owner tag per resident L3 slot for
        :meth:`l3_occupancy_by_owner`.

    A new kernel takes the state a freed kernel of the same ``socket``
    and ``track_owner`` left as the spare, when there is one, and resets
    it to a fresh kernel's: :meth:`flush_caches`, :meth:`reset_counters`
    and the arbiter's registers zeroed. Its dirty bitmap is always new;
    :meth:`reserve_lines` sizes it.

    Raises :class:`~repro.errors.ConfigError` when the C kernel is
    unavailable; :func:`make_socket_kernel` picks the list kernel then.
    """

    def __init__(self, socket: SocketConfig, track_owner: bool = False):
        self._lib = _ckernel.load()
        if self._lib is None:
            raise ConfigError("the array kernel needs the C kernel, which is "
                              "unavailable (no compiler, or REPRO_NO_CKERNEL set)")
        self.socket = socket
        n = socket.n_cores

        s1, w1 = socket.l1.n_sets, socket.l1.ways
        s2, w2 = socket.l2.n_sets, socket.l2.ways
        s3, w3 = socket.l3.n_sets, socket.l3.ways
        self._l1_mask, self._l2_mask, self._l3_mask = s1 - 1, s2 - 1, s3 - 1
        self._w1, self._w2, self._w3 = w1, w2, w3
        self._blk1, self._blk2 = s1 * w1, s2 * w2
        self._idx_shift = 64 - (2 * s3 * w3 - 1).bit_length()

        t = socket.timing
        self._ns_per_op = t.ns_per_op
        self._l1_ns = t.l1_hit_ns
        self._l2_ns = t.l2_hit_ns
        self._l3_ns = t.l3_hit_ns
        self._pf_ns = t.prefetch_hit_ns
        self._dram_ns = t.dram_latency_ns / t.mlp
        self._dram_serial_ns = t.dram_latency_ns

        # The state of a freed kernel of this shape, or a fresh one.
        key = (socket, track_owner)
        state = _take_spare(key)
        recycled = state is not None
        if state is None:
            state = _new_state(socket, track_owner)
        vars(self).update(state)
        self.arbiter = _ArbiterView(socket.line_bytes, socket.dram_bandwidth_Bps,
                                    socket.throttle_writebacks,
                                    registers=self._arb_regs)
        self.prefetchers = [
            _PrefetcherView(socket.prefetch, self._pf_count, self._pf_issued, c)
            for c in range(n)
        ]
        # Never recycled: a fresh bitmap costs nothing until written.
        self._dirty = np.zeros(_DIRTY_CAP0, dtype=np.uint8)
        self._dirty_cap = _DIRTY_CAP0
        if recycled:
            self._bind_dirty()
            self.flush_caches()
            self.reset_counters()
            self.arbiter.clear()
        else:
            self._ks = state["_ks"] = self._build_struct()
            self._ksp = state["_ksp"] = ctypes.pointer(self._ks)
        # Once this kernel is freed, its state is the next one's spare.
        weakref.finalize(self, _spare.append, (key, state)).atexit = False

    # -- C plumbing ----------------------------------------------------------

    def _build_struct(self) -> "_ckernel.KStruct":
        s = self.socket
        ks = _ckernel.KStruct()
        ks.tags1, ks.fp1 = self._tags1.ctypes.data, self._fp1.ctypes.data
        ks.prev1, ks.next1, ks.head1 = (a.ctypes.data for a in self._lru1)
        ks.tags2, ks.fp2 = self._tags2.ctypes.data, self._fp2.ctypes.data
        ks.prev2, ks.next2, ks.head2 = (a.ctypes.data for a in self._lru2)
        ks.tags3 = self._tags3.ctypes.data
        ks.prev3, ks.next3, ks.head3 = (a.ctypes.data for a in self._lru3)
        ks.idx3 = self._idx3.ctypes.data
        ks.owner3 = self._owner3.ctypes.data if self._owner3 is not None else None
        ks.arrival3 = self._arrival3.ctypes.data
        ks.dirty = self._dirty.ctypes.data
        ks.iregs = self._iregs.ctypes.data
        ks.arb = ctypes.addressof(self.arbiter.struct)
        ks.pf_sid = self._pf_sid.ctypes.data
        ks.pf_last = self._pf_last.ctypes.data
        ks.pf_stride = self._pf_stride.ctypes.data
        ks.pf_streak = self._pf_streak.ctypes.data
        ks.pf_expected = self._pf_expected.ctypes.data
        ks.pf_order = self._pf_order.ctypes.data
        ks.pf_count = self._pf_count.ctypes.data
        ks.pf_issued = self._pf_issued.ctypes.data
        ks.counts, ks.times = self.counts.ctypes.data, self.times.ctypes.data
        ks.counts_stride = self.counts.strides[0] // self.counts.itemsize
        ks.times_stride = self.times.strides[0] // self.times.itemsize
        ks.l1_mask, ks.l2_mask, ks.l3_mask = self._l1_mask, self._l2_mask, self._l3_mask
        ks.w1, ks.w2 = self._w1, self._w2
        ks.blk1, ks.blk2 = self._blk1, self._blk2
        ks.idx_mask, ks.idx_shift = self._idx3.size - 1, self._idx_shift
        ks.dirty_cap = self._dirty_cap
        ks.l1_ns, ks.l2_ns, ks.l3_ns = self._l1_ns, self._l2_ns, self._l3_ns
        ks.pf_ns = self._pf_ns
        ks.pf_enabled = 1 if s.prefetch.enabled else 0
        ks.pf_degree = s.prefetch.degree
        ks.pf_detect_after = s.prefetch.detect_after
        ks.pf_nstreams = s.prefetch.n_streams
        return ks

    def _bind_dirty(self) -> None:
        self._ks.dirty = self._dirty.ctypes.data
        self._ks.dirty_cap = self._dirty_cap

    def _grow_dirty(self, max_line: int) -> None:
        new_cap = self._dirty_cap
        while new_cap <= max_line:
            new_cap *= 2
        grown = np.zeros(new_cap, dtype=np.uint8)
        grown[: self._dirty_cap] = self._dirty
        self._dirty = grown
        self._dirty_cap = new_cap
        self._bind_dirty()

    def reserve_lines(self, n_lines: int) -> None:
        """Size the dirty bitmap for line addresses below ``n_lines``.

        The simulators call this once, after every thread has allocated
        (``AddressSpace.used_bytes``), so a point grows the bitmap once
        instead of at each refill that reaches a higher buffer. No result
        depends on the bitmap's capacity.
        """
        if n_lines > self._dirty_cap:
            self._grow_dirty(n_lines - 1)

    def ensure_line_capacity(self, lines: np.ndarray) -> None:
        """Validate a batch of line addresses and pre-grow the dirty
        bitmap to cover them.

        The macro-stepped scheduler calls this once per refilled block:
        the compiled loops index ``dirty`` unguarded, so the capacity
        check that :meth:`run_chunk` performs per chunk must happen
        before a whole block is handed to ``sched_step``.
        """
        if lines.size == 0:
            return
        if int(lines.min()) < 0:
            raise ValueError(
                "array kernel: negative line addresses are not supported"
            )
        max_line = int(lines.max())
        if max_line >= self._dirty_cap:
            self._grow_dirty(max_line)

    # -- hot loop ------------------------------------------------------------

    def run_chunk(self, core: int, chunk: AccessChunk, now_ns: float) -> float:
        """Execute ``chunk`` on ``core`` starting at ``now_ns``; returns
        the simulated completion time (identical semantics and float
        results to :meth:`FastSocket.run_chunk`). The compiled code adds
        the chunk to the core's counter rows."""
        lines = chunk.lines
        if isinstance(lines, np.ndarray):
            if lines.dtype != np.int64 or not lines.flags.c_contiguous:
                lines = np.ascontiguousarray(lines, dtype=np.int64)
        else:
            lines = np.asarray(lines, dtype=np.int64)
        n = int(lines.size)
        if n:
            max_line = int(lines.max())
            if max_line >= self._dirty_cap:
                if int(lines.min()) < 0:
                    raise ValueError(
                        "array kernel: negative line addresses are not supported"
                    )
                self._grow_dirty(max_line)
            elif int(lines.min()) < 0:
                raise ValueError(
                    "array kernel: negative line addresses are not supported"
                )

        ops = chunk.ops_per_access
        return self._lib.run_chunk(
            self._ksp, core, lines.ctypes.data, n,
            1 if chunk.is_write else 0, 1 if chunk.prefetchable else 0,
            chunk.stream_id, ops, ops * self._ns_per_op,
            self._dram_serial_ns if chunk.serialize else self._dram_ns,
            now_ns, chunk.extra_ns,
        )

    # -- inspection / control -------------------------------------------------

    def l3_resident_count(self) -> int:
        """Number of lines currently resident in the shared L3."""
        return int((self._tags3 != EMPTY_TAG).sum())

    def l3_occupancy_by_owner(self) -> Dict[int, int]:
        """L3 lines held per core (requires ``track_owner=True``)."""
        if self._owner3 is None:
            raise ValueError("ArraySocket was created without track_owner")
        occupied = self._tags3 != EMPTY_TAG
        owners, counts = np.unique(self._owner3[occupied], return_counts=True)
        return {int(o): int(c) for o, c in zip(owners, counts)}

    def l3_contains(self, line_addr: int) -> bool:
        b = (line_addr & self._l3_mask) * self._w3
        return bool((self._tags3[b:b + self._w3] == line_addr).any())

    @property
    def counters(self) -> List[CoreCounters]:
        """Every core's counters as :class:`CoreCounters` values, read
        from the matrices (a copy: later chunks do not change it)."""
        return core_counters(self.counts, self.times)

    def reset_counters(self) -> None:
        """Zero all event counters, keeping cache/link state (used to
        separate warm-up from the measurement window). The matrices are
        zeroed in place: the compiled code holds their addresses."""
        self.counts.fill(0)
        self.times.fill(0.0)
        self.arbiter.reset_counters()

    def flush_caches(self) -> None:
        """Empty every cache level and prefetcher (cold restart): every
        cache, index, dirty and prefetcher array is as in a new kernel,
        but the fingerprint bytes of empty slots, which no lookup
        trusts. Counters and the arbiter are :meth:`reset_counters`'."""
        s = self.socket
        self._tags1.fill(EMPTY_TAG)
        _reset_recency(self._lru1, s.l1.n_sets, self._w1)
        self._tags2.fill(EMPTY_TAG)
        _reset_recency(self._lru2, s.l2.n_sets, self._w2)
        self._tags3.fill(EMPTY_TAG)
        _reset_recency(self._lru3, s.l3.n_sets, self._w3)
        self._idx3.fill(-1)
        if self._owner3 is not None:
            self._owner3.fill(-1)
        self._arrival3.fill(-1.0)
        self._dirty.fill(0)
        self._iregs.fill(0)
        for name in _PF_TABLES:
            getattr(self, name).fill(0)
        self._pf_count.fill(0)
        self._pf_issued.fill(0)

    def socket_counters(self, elapsed_ns: float) -> SocketCounters:
        """Aggregate snapshot over a window of ``elapsed_ns``."""
        return SocketCounters(
            cores=self.counters,
            link_fill_bytes=self.arbiter.fill_bytes,
            link_writeback_bytes=self.arbiter.writeback_bytes,
            link_busy_ns=self.arbiter.busy_ns,
            elapsed_ns=elapsed_ns,
        )


SocketKernel = Union[FastSocket, ArraySocket]


class _SchedBinding:
    """The compiled scheduler's SCH and NK structs bound to one kernel —
    a lone :class:`ArraySocket`, or a node whose socket kernels are all
    array sockets — and one macro-state. Built once per macro-state (the
    arrays it points at never move) and reused for every window; only
    the queue line arena (reallocated by ``grow_lines``), the node's
    page-home table (reallocated when an allocation grows it) and the
    Python-side scalar mirrors need refreshing around each crossing. The
    macro-state owns the binding, and :meth:`step` takes the state as an
    argument rather than holding it, so the two form no reference
    cycle."""

    def __init__(self, fast, st):
        self.fast = fast
        sockets = getattr(fast, "kernels", None) or [fast]
        lead = sockets[0]
        self._lib = lead._lib
        nk = _ckernel.NKStruct()
        self._ks_ptrs = (ctypes.c_void_p * len(sockets))(
            *(ctypes.addressof(k._ks) for k in sockets))
        nk.ks = ctypes.addressof(self._ks_ptrs)
        nk.n_sockets = len(sockets)
        nk.cores_per_socket = lead.socket.n_cores
        self._addrspace = None
        self._pages = None
        if len(sockets) > 1:
            nk.xlink = ctypes.addressof(fast.xlink.struct)
            nk.carry = fast.remote_carry.ctypes.data
            self._by_home = np.zeros(len(sockets), dtype=np.int64)
            nk.by_home = self._by_home.ctypes.data
            nk.remote_penalty_ns = fast.node.remote_penalty_ns
            nk.page_line_shift = fast.addrspace.page_line_shift
            self._addrspace = fast.addrspace
        self.nk = nk
        self._nkp = ctypes.byref(nk)
        q = st.q
        self._q = q
        sch = _ckernel.SCHStruct()
        sch.core_ids = st.core_ids.ctypes.data
        sch.clock = st.clock.ctypes.data
        sch.accesses = st.accesses.ctypes.data
        sch.flags = st.flags.ctypes.data
        sch.finish = st.finish.ctypes.data
        sch.goal = st.goal.ctypes.data
        sch.head = q.head.ctypes.data
        sch.count = q.count.ctypes.data
        sch.qoff = q.off.ctypes.data
        sch.qlen = q.clen.ctypes.data
        sch.qwrite = q.cwrite.ctypes.data
        sch.qops = q.cops.ctypes.data
        sch.qsid = q.csid.ctypes.data
        sch.qser = q.cser.ctypes.data
        sch.qpf = q.cpf.ctypes.data
        sch.qextra = q.cextra.ctypes.data
        sch.n = q.n_slots
        sch.chunk_cap = q.chunk_cap
        sch.ns_per_op = lead._ns_per_op
        sch.dram_mlp_ns = lead._dram_ns
        sch.dram_serial_ns = lead._dram_serial_ns
        self.sch = sch
        self._schp = ctypes.byref(sch)
        self._bound_generation = -1  # force a qlines refresh on first call

    def step(self, st, max_steps: int) -> int:
        sch, q = self.sch, self._q
        # Mirror the Python-side scheduling scalars into the struct (and
        # rebind the line arena or the page-home table if a refill or an
        # allocation reallocated it) ...
        if self._bound_generation != q.generation:
            sch.qlines = q.lines.ctypes.data
            sch.line_cap = q.line_cap
            self._bound_generation = q.generation
        if self._addrspace is not None:
            pages = self._addrspace.page_homes
            if pages is not self._pages:
                self._pages = pages
                self.nk.page_home = pages.ctypes.data
                self.nk.n_pages = pages.size
        sch.max_total = st.max_total
        sch.total = st.total
        sch.active_mains = st.active_mains
        status = int(self._lib.sched_step(self._nkp, self._schp, max_steps))
        # ... and back after the crossing.
        st.total = int(sch.total)
        st.active_mains = int(sch.active_mains)
        st.event = int(sch.event)
        return status


def bind_sched_step(fast, st) -> Optional[object]:
    """Bind the compiled ``sched_step`` to ``fast`` and a scheduler
    macro-state ``st`` (see :class:`repro.engine.scheduler._MacroState`).

    ``fast`` is a socket kernel or a multi-socket
    :class:`~repro.engine.node.NodeKernel`; the compiled step runs the
    node's page-home lookup, remote-fill attribution and inter-socket
    link in C, so a node window is one C loop like a lone socket's.
    Returns the cached ``step(st, max_steps) -> status`` callable, or
    ``None`` when a socket kernel is the list kernel (no C compiler),
    in which case the scheduler runs its pure-Python macro-step.
    """
    sockets = getattr(fast, "kernels", None) or (fast,)
    if not all(isinstance(k, ArraySocket) for k in sockets):
        return None
    binding = st.binding
    if binding is None or binding.fast is not fast:
        binding = _SchedBinding(fast, st)
        st.binding = binding
    return binding.step


_warned_fallback = False


def make_socket_kernel(socket: SocketConfig, track_owner: bool = False) -> SocketKernel:
    """Build the simulation kernel: :class:`ArraySocket` when the C
    kernel loads, else the list kernel :class:`FastSocket` (with a
    one-time ``RuntimeWarning``). Both are cross-validated bit-for-bit,
    so the choice only ever affects throughput.
    """
    global _warned_fallback
    if _ckernel.load() is not None:
        return ArraySocket(socket, track_owner=track_owner)
    if not _warned_fallback:
        _warned_fallback = True
        warnings.warn(
            "no C compiler found: falling back to the list kernel",
            RuntimeWarning,
            stacklevel=2,
        )
    return FastSocket(socket, track_owner=track_owner)
