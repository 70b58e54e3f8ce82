"""Three-way kernel equivalence: object hierarchy ↔ list kernel ↔ array kernel.

The array-native engine (``repro.engine.arraypath.ArraySocket``, a
compiled C hot loop) must be *bit-identical* to the reference list
kernel (``FastSocket``): every event counter, every per-chunk finish time
and every float counter (DESIGN.md; the C loop mirrors CPython's operand
order and is compiled with ``-ffp-contract=off``). The hand-picked shapes
below pin known regimes; the randomized differential test draws small
sockets and access programs so that eviction order, prefetch staging and
writebacks are checked far off those shapes. The list kernel in turn is
validated against the object hierarchy in
``test_fastpath_equivalence.py``; the short hierarchy leg here closes the
triangle directly for the array kernel. A freed array kernel leaves its
state as a spare for the next kernel of its shape; the last section holds
a recycled kernel bit-identical to a fresh one, and the spare safe when
kernels come and go on several threads. Without a C toolchain the array
kernel does not exist and its tests skip.
"""

from __future__ import annotations

import functools
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import (
    CacheGeometry, PrefetchConfig, SocketConfig, tiny_socket, xeon20mb,
)
from repro.core.parallel import PointRunner
from repro.core.sweep import ActiveMeasurement
from repro.engine import AccessChunk, ArraySocket, FastSocket, make_socket_kernel
from repro.engine import _ckernel, arraypath
from repro.errors import ConfigError
from repro.mem import DRAM, L1, L2, L3, SocketHierarchy
from repro.mem.counters import COLUMN, COUNT_FIELDS, TIME_FIELDS
from repro.units import GBps, MiB
from repro.workloads import (
    ProbabilisticBenchmark, UniformDist, table_ii_distributions,
)

#: Count columns whose sum is every access: each lands at one level.
LEVELS = [COLUMN.l1_hits, COLUMN.l2_hits, COLUMN.l3_hits,
          COLUMN.prefetch_hits, COLUMN.l3_misses]

needs_c = pytest.mark.skipif(not _ckernel.available(), reason="no C toolchain")


def bits(x):
    """A float's exact hex spelling, so a last-bit difference fails."""
    return float(x).hex()


def drive(kernel, chunks, cores=None):
    """Run ``chunks`` through ``kernel``; returns per-chunk finish times."""
    if cores is None:
        cores = [0] * len(chunks)
    t, times = 0.0, []
    for core, chunk in zip(cores, chunks):
        t = kernel.run_chunk(core, chunk, t)
        times.append(t)
    return times


def assert_same_counters(ref, other, n_cores):
    """Every core counter and the arbiter's bytes and busy time, exactly;
    each counter read back is a plain Python ``int`` or ``float``."""
    for core in range(n_cores):
        a, b = ref.counters[core], other.counters[core]
        for f in COUNT_FIELDS:
            assert getattr(a, f) == getattr(b, f), f"core {core} {f}"
            assert type(getattr(a, f)) is type(getattr(b, f)) is int, f
        for f in TIME_FIELDS:
            assert bits(getattr(a, f)) == bits(getattr(b, f)), f"core {core} {f}"
            assert type(getattr(a, f)) is type(getattr(b, f)) is float, f
    assert ref.arbiter.fill_bytes == other.arbiter.fill_bytes
    assert ref.arbiter.writeback_bytes == other.arbiter.writeback_bytes
    assert bits(ref.arbiter.busy_ns) == bits(other.arbiter.busy_ns)


def assert_equivalent(ref, other, ref_times, other_times, n_cores=1,
                      owners=False):
    """Finish times, counters and shared state all exactly equal."""
    assert list(map(bits, other_times)) == list(map(bits, ref_times))
    assert_same_counters(ref, other, n_cores)
    assert ref.l3_resident_count() == other.l3_resident_count()
    if owners:
        assert ref.l3_occupancy_by_owner() == other.l3_occupancy_by_owner()


def pair(socket, **kw):
    return FastSocket(socket, **kw), ArraySocket(socket, **kw)


# ---------------------------------------------------------------------------
# List kernel ↔ array kernel
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dist_name", sorted(table_ii_distributions()))
@needs_c
def test_table_ii_distribution_traffic_matches(dist_name):
    """Every Table II access pattern produces bit-identical counters."""
    dist = table_ii_distributions()[dist_name]
    socket = tiny_socket()
    rng = np.random.default_rng(11)
    n_lines = socket.l3.n_sets * socket.l3.ways * 2  # 2x L3 capacity
    chunks = [
        AccessChunk(
            lines=dist.sample(rng, 256, n_lines),
            is_write=(i % 2 == 0),
            ops_per_access=6,
            prefetchable=False,
        )
        for i in range(40)
    ]
    fast, arr = pair(socket)
    assert_equivalent(fast, arr, drive(fast, chunks), drive(arr, chunks))


@needs_c
def test_dirty_writeback_equivalence():
    """Write traffic overflowing every level must evict dirty lines
    identically (writeback counter and arbiter writeback bytes)."""
    socket = tiny_socket()
    rng = np.random.default_rng(3)
    cap = socket.l3.n_sets * socket.l3.ways
    chunks = [
        AccessChunk(lines=rng.integers(0, 3 * cap, size=200),
                    is_write=True, prefetchable=False)
        for _ in range(30)
    ]
    fast, arr = pair(socket)
    assert_equivalent(fast, arr, drive(fast, chunks), drive(arr, chunks))
    assert fast.counters[0].writebacks > 0
    assert fast.arbiter.writeback_bytes > 0


@needs_c
def test_multicore_shared_l3_owner_eviction():
    """Four cores fighting over the shared L3 with owner tracking on:
    cross-core evictions must transfer ownership identically."""
    socket = tiny_socket(n_cores=4)
    rng = np.random.default_rng(5)
    cap = socket.l3.n_sets * socket.l3.ways
    chunks, cores = [], []
    for i in range(60):
        core = i % 4
        base = core * cap // 3  # overlapping per-core footprints
        chunks.append(AccessChunk(
            lines=base + rng.integers(0, cap, size=150),
            is_write=(core % 2 == 0), prefetchable=False,
        ))
        cores.append(core)
    fast, arr = pair(socket, track_owner=True)
    assert_equivalent(
        fast, arr, drive(fast, chunks, cores), drive(arr, chunks, cores),
        n_cores=4, owners=True,
    )
    assert len(fast.l3_occupancy_by_owner()) > 1


@needs_c
def test_serialized_pointer_chase_chunks_match():
    """serialize=True (dependence-chained misses) charges full DRAM
    latency per miss; the timing paths must agree."""
    socket = tiny_socket()
    rng = np.random.default_rng(8)
    chunks = [
        AccessChunk(lines=rng.integers(0, 4096, size=128),
                    serialize=True, ops_per_access=2, prefetchable=False)
        for _ in range(25)
    ]
    fast, arr = pair(socket)
    assert_equivalent(fast, arr, drive(fast, chunks), drive(arr, chunks))


@needs_c
def test_prefetched_stream_with_hit_streaks_matches():
    """Prefetcher staging/consumption plus the array kernel's hit-streak
    fast path (repeated lines) against the list kernel."""
    socket = xeon20mb()
    chunks = []
    pos = 1_000_000
    for i in range(50):
        if i % 3 == 2:
            # Long runs of the same line exercise the streak batching.
            base = np.arange(20, dtype=np.int64) * 97
            chunks.append(AccessChunk(lines=np.repeat(base, 10),
                                      is_write=True))
        else:
            chunks.append(AccessChunk(
                lines=np.arange(pos, pos + 7 * 128, 7, dtype=np.int64),
                is_write=True, ops_per_access=39, stream_id=1,
            ))
            pos += 7 * 128
    fast, arr = pair(socket)
    assert_equivalent(fast, arr, drive(fast, chunks), drive(arr, chunks))
    assert fast.counters[0].prefetch_hits > 0


@needs_c
def test_lru_state_carries_across_chunk_boundaries():
    """The same trace split at different chunk granularities must leave
    identical cache state and counters — chunking is a scheduling
    artifact, not a semantic one."""
    socket = tiny_socket()
    rng = np.random.default_rng(13)
    trace = rng.integers(0, 2000, size=6000)
    results = []
    for quantum in (1, 7, 256, 6000):
        fast, arr = pair(socket)
        chunks = [
            AccessChunk(lines=trace[i:i + quantum], is_write=True,
                        prefetchable=False)
            for i in range(0, len(trace), quantum)
        ]
        assert_equivalent(fast, arr, drive(fast, chunks), drive(arr, chunks))
        c = fast.counters[0]
        results.append(tuple(getattr(c, f) for f in COUNT_FIELDS)
                       + (fast.l3_resident_count(),))
    assert all(r == results[0] for r in results)


# ---------------------------------------------------------------------------
# Randomized differential test: random sockets, random access programs
# ---------------------------------------------------------------------------

WAYS = (1, 2, 3, 5, 8, 12, 20)


@st.composite
def sockets(draw):
    """1-3 cores; every level's ways from WAYS and a power-of-two set
    count, the three levels ordered so capacity never shrinks L1 -> L3;
    random prefetcher and writeback throttling."""
    shapes = sorted(
        [(draw(st.sampled_from(WAYS)), 1 << draw(st.integers(0, 5)))
         for _ in range(3)],
        key=lambda shape: shape[0] * shape[1],
    )
    l1, l2, l3 = (
        CacheGeometry(ways * n_sets * 64, 64, ways, name=name)
        for (ways, n_sets), name in zip(shapes, ("L1D", "L2", "L3"))
    )
    return SocketConfig(
        n_cores=draw(st.integers(1, 3)), l1=l1, l2=l2, l3=l3,
        dram_bandwidth_Bps=GBps(draw(st.sampled_from((0.5, 2.0, 8.0)))),
        prefetch=PrefetchConfig(
            enabled=draw(st.booleans()),
            degree=draw(st.integers(0, 8)),
            detect_after=draw(st.integers(1, 4)),
            n_streams=draw(st.integers(1, 4)),
        ),
        throttle_writebacks=draw(st.booleans()),
        name="drawn",
    )


@st.composite
def programs(draw, socket):
    """A list of ``(core, chunk)`` steps and ``"flush"``/``"reset"``
    markers. Chunks draw wide random lines, a hot set of at most 25
    lines (L1 and L2 hits on slots that are not MRU), lines that share
    one L1 set, one L2 set and one tag fingerprint (so every lookup among
    them meets fingerprint matches that are other lines), or strided
    streams; descending streams end near line 0, so their prefetch
    targets go negative."""
    hot = np.array(draw(st.lists(st.integers(0, 4095), min_size=1,
                                 max_size=25, unique=True)))
    period = max(socket.l1.n_sets, socket.l2.n_sets)
    same_sets = draw(st.integers(0, period - 1)) + period * np.arange(4096)
    prints = _ckernel.fingerprint(same_sets.astype(np.uint64))
    collide = same_sets[prints == prints[draw(st.integers(0, 4095))]]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ("wide", "hot", "hot", "collide", "stream", "stream", "flush",
             "reset")
        ))
        if kind in ("flush", "reset"):
            steps.append(kind)
            continue
        n = draw(st.integers(1, 64))
        if kind == "wide":
            lines = rng.integers(0, 1 << 20, size=n)
        elif kind == "hot":
            lines = rng.choice(hot, size=n)
        elif kind == "collide":
            lines = rng.choice(collide, size=n)
        else:
            stride = draw(st.integers(1, 8)) * draw(st.sampled_from((1, -1)))
            start = draw(st.integers(0, 64))
            if stride < 0:
                start += -stride * (n - 1)
            lines = start + stride * np.arange(n)
        steps.append((draw(st.integers(0, socket.n_cores - 1)), AccessChunk(
            lines=lines,
            is_write=draw(st.booleans()),
            ops_per_access=draw(st.integers(0, 20)),
            stream_id=draw(st.integers(0, 3)),
            serialize=draw(st.booleans()),
            extra_ns=draw(st.sampled_from((0.0, 0.0, 37.25))),
            prefetchable=draw(st.booleans()),
        )))
    return steps


@st.composite
def cases(draw):
    socket = draw(sockets())
    return socket, draw(st.booleans()), draw(programs(socket))


def array_laws(kernel):
    """A check of the set and index laws of an :class:`ArraySocket`'s
    state, to call after every step: each set's circular recency list
    visits each of its ways exactly once with ``prev`` and ``next``
    inverse, every filled L1/L2 slot's fingerprint matches its tag, no tag
    appears twice in one set, and the L3 line index maps every valid L3
    line to its slot and holds nothing else."""
    sock, empty_tag = kernel.socket, arraypath.EMPTY_TAG
    levels = []
    for tags, lru, fp, n_sets, ways in (
        (kernel._tags1, kernel._lru1, kernel._fp1, sock.l1.n_sets, kernel._w1),
        (kernel._tags2, kernel._lru2, kernel._fp2, sock.l2.n_sets, kernel._w2),
        (kernel._tags3, kernel._lru3, None, sock.l3.n_sets, kernel._w3),
    ):
        # Slot ids are offsets into a block, one block per core at L1/L2.
        blk = n_sets * ways
        n_blocks = tags.size // blk
        slot_base = np.repeat(np.arange(n_blocks) * blk, blk)
        set_base = np.repeat(np.arange(n_blocks) * blk, n_sets)
        own = (np.tile(np.arange(n_sets) * ways, n_blocks)
               + np.arange(ways)[:, None])
        levels.append((tags, lru, fp, ways, blk, slot_base,
                       np.arange(tags.size) - slot_base, set_base, own))
    idx, tags3 = kernel._idx3, kernel._tags3
    size = idx.size
    doubled = np.arange(2 * size)

    def check():
        for tags, (prev, nxt, head), fp, ways, blk, slot_base, local, \
                set_base, own in levels:
            assert ((nxt >= 0) & (nxt < blk) & (prev >= 0) & (prev < blk)).all()
            assert (prev[nxt + slot_base] == local).all()
            pos, visited = head, []
            for _ in range(ways):
                visited.append(pos)
                pos = nxt[pos + set_base]
            assert (pos == head).all()
            assert (np.sort(np.stack(visited), axis=0) == own).all()
            rows = np.sort(tags.reshape(-1, ways), axis=1)
            assert not ((rows[:, 1:] == rows[:, :-1])
                        & (rows[:, 1:] != empty_tag)).any()
            if fp is not None:
                assert fp.size == tags.size + 7
                filled = tags != empty_tag
                assert (fp[:tags.size][filled] == _ckernel.fingerprint(
                    tags[filled].view(np.uint64))).all()
        buckets = np.flatnonzero(idx >= 0)
        assert np.array_equal(np.sort(idx[buckets]),
                              np.flatnonzero(tags3 != empty_tag))
        # A linear-probing lookup finds a line iff no empty bucket lies
        # between its home bucket and the bucket holding it.
        home = (tags3[idx[buckets]].view(np.uint64) * _ckernel.HASH_MULT
                ) >> kernel._idx_shift
        last_empty = np.maximum.accumulate(
            np.where(np.tile(idx < 0, 2), doubled, -1))[buckets + size]
        assert ((buckets - home.astype(np.int64)) % size
                < buckets + size - last_empty).all()

    return check


@needs_c
@given(cases())
@settings(max_examples=400, deadline=None)
def test_random_programs_match_list_kernel(case):
    """The array kernel equals the list kernel on random sockets and
    programs: every finish time and counter bit for bit, the arbiter,
    and the L3 contents and owners, also across flushes and resets."""
    socket, track_owner, steps = case
    ref, arr = pair(socket, track_owner=track_owner)
    drawn = sorted({int(a) for step in steps if isinstance(step, tuple)
                    for a in step[1].lines})
    clock = [0.0] * socket.n_cores

    def assert_same_l3():
        assert ref.l3_resident_count() == arr.l3_resident_count()
        assert [ref.l3_contains(a) for a in drawn] == [
            arr.l3_contains(a) for a in drawn
        ]
        if track_owner:
            assert ref.l3_occupancy_by_owner() == arr.l3_occupancy_by_owner()

    def assert_rows_bound():
        # C holds the counter matrices' addresses: resets and flushes
        # must zero them in place, never rebind them.
        assert (arr._ks.counts, arr._ks.times) == (
            arr.counts.ctypes.data, arr.times.ctypes.data
        )

    assert_laws = array_laws(arr)
    assert_laws()
    for step in steps:
        if step == "flush":
            assert_same_l3()
            ref.flush_caches()
            arr.flush_caches()
            assert_rows_bound()
        elif step == "reset":
            assert_same_counters(ref, arr, socket.n_cores)
            ref.reset_counters()
            arr.reset_counters()
            assert_rows_bound()
        else:
            core, chunk = step
            t = ref.run_chunk(core, chunk, clock[core])
            assert bits(arr.run_chunk(core, chunk, clock[core])) == bits(t)
            clock[core] = t
        assert_laws()
    assert_same_counters(ref, arr, socket.n_cores)
    assert_same_l3()
    # Every access lands at exactly one level, on both kernels.
    for kernel in (ref, arr):
        counts = kernel.counts
        assert (counts[:, LEVELS].sum(axis=1) == counts[:, COLUMN.accesses]).all()


# ---------------------------------------------------------------------------
# Object hierarchy ↔ array kernel (closes the validation triangle)
# ---------------------------------------------------------------------------


@needs_c
def test_array_kernel_hit_levels_match_object_hierarchy():
    """With the prefetcher off both are plain LRU hierarchies; per-access
    hit levels inferred from counter deltas must match the reference
    object hierarchy exactly."""
    socket = replace(tiny_socket(), prefetch=PrefetchConfig(enabled=False))
    rng = np.random.default_rng(2)
    trace = rng.integers(0, 600, size=2000).tolist()

    ref = SocketHierarchy(socket)
    ref_levels = [ref.access(0, a).level for a in trace]

    arr = ArraySocket(socket)
    got = []
    for a in trace:
        c = arr.counters[0]
        before = (c.l1_hits, c.l2_hits, c.l3_hits, c.l3_misses)
        arr.run_chunk(0, AccessChunk(lines=[a]), 0.0)
        c = arr.counters[0]
        after = (c.l1_hits, c.l2_hits, c.l3_hits, c.l3_misses)
        delta = tuple(x - y for x, y in zip(after, before))
        got.append({(1, 0, 0, 0): L1, (0, 1, 0, 0): L2,
                    (0, 0, 1, 0): L3, (0, 0, 0, 1): DRAM}[delta])
    assert got == ref_levels


# ---------------------------------------------------------------------------
# Kernel selection: the array kernel when C loads, else the list kernel
# ---------------------------------------------------------------------------


class TestKernelSelection:
    @needs_c
    def test_default_is_arrays(self):
        assert isinstance(make_socket_kernel(tiny_socket()), ArraySocket)

    def test_no_compiler_falls_back_to_list_kernel(self, monkeypatch):
        monkeypatch.setattr(_ckernel, "load", lambda: None)
        monkeypatch.setattr(arraypath, "_warned_fallback", False)
        with pytest.warns(RuntimeWarning, match="list kernel"):
            kernel = make_socket_kernel(tiny_socket())
        assert isinstance(kernel, FastSocket)

    def test_explicit_c_backend_without_compiler_rejected(self, monkeypatch):
        monkeypatch.setattr(_ckernel, "load", lambda: None)
        with pytest.raises(ConfigError):
            ArraySocket(tiny_socket())


# ---------------------------------------------------------------------------
# Recycled kernel state: a freed kernel's arrays are the next one's spare
# ---------------------------------------------------------------------------

#: Every array the compiled code reads, but the fingerprints (compared
#: on filled slots only), the recency lists and the arbiter registers.
KERNEL_ARRAYS = (
    "_tags1", "_tags2", "_tags3", "_idx3", "_owner3", "_arrival3", "_dirty",
    "_iregs", "_pf_sid", "_pf_last", "_pf_stride", "_pf_streak",
    "_pf_expected", "_pf_order", "_pf_count", "_pf_issued", "counts", "times",
)


def same_array(a, b) -> bool:
    """Equal shape and bits (floats compared by their 64-bit patterns)."""
    if a is None or b is None:
        return a is b
    if a.dtype == np.float64:
        a, b = a.view(np.int64), b.view(np.int64)
    return a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_state(a, b):
    """Two array kernels hold the same state, bit for bit, in every array
    C reads: tags, recency lists, fingerprints of filled slots, index,
    owners, arrivals, dirty bitmap, prefetcher tables, counter matrices
    and the arbiter's registers. Fingerprint bytes of empty slots are
    never trusted, so they may differ."""
    for name in KERNEL_ARRAYS:
        assert same_array(getattr(a, name), getattr(b, name)), name
    for name in ("_lru1", "_lru2", "_lru3"):
        for x, y in zip(getattr(a, name), getattr(b, name)):
            assert same_array(x, y), name
    for fp, tags in (("_fp1", "_tags1"), ("_fp2", "_tags2")):
        filled = getattr(a, tags) != arraypath.EMPTY_TAG
        n = filled.size
        assert same_array(getattr(a, fp)[:n][filled], getattr(b, fp)[:n][filled]), fp
    assert same_array(a.arbiter._a, b.arbiter._a), "arbiter regs"
    assert same_array(a.arbiter._ai, b.arbiter._ai), "arbiter iregs"
    for k in (a, b):
        # C reads the dirty bitmap through KS: its own, at its capacity.
        assert (k._ks.dirty, k._ks.dirty_cap) == (k._dirty.ctypes.data, k._dirty_cap)


def run_program(kernel, steps, check=None):
    """Run a :func:`programs` draw; returns every chunk's finish time."""
    clock = [0.0] * kernel.socket.n_cores
    finish = []
    for step in steps:
        if step == "flush":
            kernel.flush_caches()
        elif step == "reset":
            kernel.reset_counters()
        else:
            core, chunk = step
            clock[core] = kernel.run_chunk(core, chunk, clock[core])
            finish.append(bits(clock[core]))
        if check is not None:
            check()
    return finish


@needs_c
@given(cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_recycled_kernel_matches_fresh(case, data):
    """A kernel built from a freed kernel's state equals a fresh kernel,
    bit for bit. A random program (writes, prefetch, owner tracking,
    lines past the initial dirty capacity, flushes and resets) runs on a
    kernel, which is then dropped; the next kernel of the same shape
    takes its state, a fresh one is built beside it, and a second
    program runs on both: finish times, counters, arbiter registers and
    every array C reads must match."""
    socket, track_owner, first = case
    second = data.draw(programs(socket), label="second program")
    arraypath._spare.clear()  # the first kernel is built fresh
    kernel = ArraySocket(socket, track_owner=track_owner)
    run_program(kernel, first)
    used = kernel._tags3
    del kernel
    recycled = ArraySocket(socket, track_owner=track_owner)
    assert recycled._tags3 is used, "the next kernel did not take the spare"
    fresh = ArraySocket(socket, track_owner=track_owner)
    assert fresh._tags3 is not used
    assert_same_state(recycled, fresh)
    assert run_program(recycled, second, array_laws(recycled)) == run_program(
        fresh, second)
    assert_same_counters(fresh, recycled, socket.n_cores)
    assert_same_state(recycled, fresh)


#: The nine points of a short sweep: cs k = 0..4, then bw k = 0..3.
NINE_POINTS = [("cs", k) for k in range(5)] + [("bw", k) for k in range(4)]


def short_sweep(runner, seed=3):
    """A campaign of short windows on the Xeon20MB (512 + 1,024 main
    accesses at quantum 16), its points seeded apart."""
    am = ActiveMeasurement(
        xeon20mb(),
        functools.partial(ProbabilisticBenchmark, UniformDist(), 8 * MiB,
                          quantum=16),
        seed=seed, warmup_accesses=512, measure_accesses=1024,
        runner=runner, per_point_seeds=True,
    )
    return am


@needs_c
def test_nine_point_sweep_allocates_one_kernel_state(monkeypatch):
    """Each point's kernel takes the state its predecessor left, so a
    sweep allocates one kernel state, not one per point."""
    built = []
    new_state = arraypath._new_state

    def counting(socket, track_owner):
        built.append(socket.name)
        return new_state(socket, track_owner)

    monkeypatch.setattr(arraypath, "_new_state", counting)
    arraypath._spare.clear()
    am = short_sweep(PointRunner(backend="serial", retries=0))
    for kind, k in NINE_POINTS:
        am.run_point(kind, k)
    assert built == ["Xeon20MB"]


#: Rounds of threaded sweeps the thread-safety test runs.
THREAD_ROUNDS = 8


@needs_c
def test_spare_is_safe_under_threads():
    """Points run on more worker threads than cores, with the interpreter
    switching threads every microsecond, equal the serial run point for
    point: a spare taken by two kernels at once would corrupt both."""
    def sweeps(runner):
        out = []
        for seed in (3, 4, 5, 6):
            am = short_sweep(runner, seed)
            out += am.sweep("cs", range(5)).points + am.sweep("bw", range(4)).points
        return out

    serial = sweeps(PointRunner(backend="serial", retries=0))
    threaded = []

    def rounds():
        runner = PointRunner(backend="thread", max_workers=8, retries=0)
        for _ in range(THREAD_ROUNDS):
            threaded.append(sweeps(runner))

    worker = threading.Thread(target=rounds, daemon=True)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive(), "threaded sweeps did not finish in time"
    assert len(threaded) == THREAD_ROUNDS, "threaded sweeps raised"
    for points in threaded:
        assert len(points) == len(serial) == 36
        for got, want in zip(points, serial):
            assert (got.kind, got.k) == (want.kind, want.k)
            assert bits(got.makespan_ns) == bits(want.makespan_ns)
            assert got == want, f"{got.kind}:k={got.k}"
