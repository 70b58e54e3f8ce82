"""The tuned engine must agree exactly with the reference hierarchy.

With the prefetcher disabled both implementations are plain LRU
hierarchies; we drive identical multi-core traces through both and
require identical per-access hit levels. This is the test that licenses
every optimisation inside ``repro.engine.fastpath``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config import PrefetchConfig, tiny_socket
from repro.engine import AccessChunk, FastSocket
from repro.mem import DRAM, L1, L2, L3, SocketHierarchy


def no_prefetch_socket(n_cores=2):
    return replace(tiny_socket(n_cores=n_cores), prefetch=PrefetchConfig(enabled=False))


def fast_levels(fast: FastSocket, core: int, lines: list[int], is_write=False):
    """Run accesses one at a time and infer each access's hit level from
    counter deltas."""
    levels = []
    for a in lines:
        c = fast.counters[core]
        before = (c.l1_hits, c.l2_hits, c.l3_hits, c.l3_misses)
        fast.run_chunk(core, AccessChunk(lines=[a], is_write=is_write), 0.0)
        c = fast.counters[core]
        after = (c.l1_hits, c.l2_hits, c.l3_hits, c.l3_misses)
        delta = tuple(b - a_ for b, a_ in zip(after, before))
        levels.append({(1, 0, 0, 0): L1, (0, 1, 0, 0): L2,
                       (0, 0, 1, 0): L3, (0, 0, 0, 1): DRAM}[delta])
    return levels


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_core_random_trace_matches_reference(seed):
    socket = no_prefetch_socket()
    rng = np.random.default_rng(seed)
    trace = rng.integers(0, 600, size=3000).tolist()

    ref = SocketHierarchy(socket)
    ref_levels = [ref.access(0, a).level for a in trace]

    fast = FastSocket(socket)
    got = fast_levels(fast, 0, trace)
    assert got == ref_levels


@pytest.mark.parametrize("seed", [3, 4])
def test_interleaved_two_core_trace_matches_reference(seed):
    """Shared-L3 interference must be bit-identical too."""
    socket = no_prefetch_socket()
    rng = np.random.default_rng(seed)
    trace = [(int(rng.integers(0, 2)), int(a)) for a in rng.integers(0, 400, size=4000)]

    ref = SocketHierarchy(socket)
    ref_levels = [ref.access(core, a).level for core, a in trace]

    fast = FastSocket(socket)
    got = []
    for core, a in trace:
        got.extend(fast_levels(fast, core, [a]))
    assert got == ref_levels


def test_owner_tracking_matches_reference():
    socket = no_prefetch_socket()
    rng = np.random.default_rng(7)
    trace = [(int(rng.integers(0, 2)), int(a)) for a in rng.integers(0, 500, size=3000)]

    ref = SocketHierarchy(socket, track_owner=True)
    for core, a in trace:
        ref.access(core, a)

    fast = FastSocket(socket, track_owner=True)
    for core, a in trace:
        fast.run_chunk(core, AccessChunk(lines=[a]), 0.0)

    assert fast.l3_occupancy_by_owner() == ref.l3.occupancy_by_owner()


def test_l3_residency_matches_reference():
    socket = no_prefetch_socket()
    rng = np.random.default_rng(9)
    trace = rng.integers(0, 700, size=5000).tolist()

    ref = SocketHierarchy(socket)
    for a in trace:
        ref.access(0, a)
    fast = FastSocket(socket)
    fast.run_chunk(0, AccessChunk(lines=trace), 0.0)

    assert fast.l3_resident_count() == ref.l3.occupancy()
    for a in set(trace):
        assert fast.l3_contains(a) == ref.l3.probe(a)
