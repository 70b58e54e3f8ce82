"""Three-way kernel equivalence: object hierarchy ↔ list kernel ↔ array kernel.

The array-native engine (``repro.engine.arraypath.ArraySocket``, a
compiled C hot loop) must be *bit-identical* to the reference list
kernel (``FastSocket``) on every event counter, and its per-chunk finish
times must agree within 1e-9 relative tolerance (DESIGN.md; in practice
the C loop mirrors CPython's operand order and is compiled with
``-ffp-contract=off``, so the times come out exactly equal on every
platform tested). The list kernel in turn is validated against the
object hierarchy in ``test_fastpath_equivalence.py``; the short
hierarchy leg here closes the triangle directly for the array kernel.
Without a C toolchain the array kernel does not exist and its tests
skip.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import PrefetchConfig, tiny_socket, xeon20mb
from repro.engine import AccessChunk, ArraySocket, FastSocket, make_socket_kernel
from repro.engine import _ckernel, arraypath
from repro.errors import ConfigError
from repro.mem import DRAM, L1, L2, L3, SocketHierarchy
from repro.workloads import table_ii_distributions

INT_COUNTERS = (
    "accesses", "l1_hits", "l2_hits", "l3_hits", "prefetch_hits",
    "l3_misses", "prefetch_fills", "writebacks", "compute_ops",
)
NS_COUNTERS = ("stall_ns", "compute_ns", "elapsed_ns")

REL_TOL = 1e-9

needs_c = pytest.mark.skipif(not _ckernel.available(), reason="no C toolchain")


def drive(kernel, chunks, cores=None):
    """Run ``chunks`` through ``kernel``; returns per-chunk finish times."""
    if cores is None:
        cores = [0] * len(chunks)
    t, times = 0.0, []
    for core, chunk in zip(cores, chunks):
        t = kernel.run_chunk(core, chunk, t)
        times.append(t)
    return times


def assert_equivalent(ref, other, ref_times, other_times, n_cores=1,
                      owners=False):
    """Counters bit-identical, times within REL_TOL, shared state equal."""
    assert other_times == pytest.approx(ref_times, rel=REL_TOL, abs=0.0)
    for core in range(n_cores):
        a, b = ref.counters[core], other.counters[core]
        for f in INT_COUNTERS:
            assert getattr(a, f) == getattr(b, f), f"core {core} {f}"
        for f in NS_COUNTERS:
            assert getattr(b, f) == pytest.approx(
                getattr(a, f), rel=REL_TOL, abs=0.0
            ), f"core {core} {f}"
    assert ref.arbiter.fill_bytes == other.arbiter.fill_bytes
    assert ref.arbiter.writeback_bytes == other.arbiter.writeback_bytes
    assert other.arbiter.busy_ns == pytest.approx(
        ref.arbiter.busy_ns, rel=REL_TOL, abs=0.0
    )
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
        results.append(tuple(getattr(c, f) for f in INT_COUNTERS)
                       + (fast.l3_resident_count(),))
    assert all(r == results[0] for r in results)


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
    c = arr.counters[0]
    got = []
    for a in trace:
        before = (c.l1_hits, c.l2_hits, c.l3_hits, c.l3_misses)
        arr.run_chunk(0, AccessChunk(lines=[a]), 0.0)
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
