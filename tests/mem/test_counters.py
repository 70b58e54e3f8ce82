"""Performance-counter records."""

from dataclasses import fields

import pytest

from repro.mem import CoreCounters, SocketCounters
from repro.mem.counters import (
    COLUMN, COUNT_FIELDS, TIME_FIELDS, core_counters, counter_matrices,
)


class TestCoreCounters:
    def test_l3_accesses_composition(self):
        c = CoreCounters(l3_hits=10, prefetch_hits=5, l3_misses=5)
        assert c.l3_accesses == 20
        assert c.l3_miss_rate == pytest.approx(0.25)

    def test_miss_rate_zero_when_idle(self):
        assert CoreCounters().l3_miss_rate == 0.0

    def test_eq1_bandwidth(self):
        """Eq. 1: BW = line * misses / time. 1000 fills of 64 B in 1 us
        = 64 GB/s."""
        c = CoreCounters(l3_misses=600, prefetch_fills=400, elapsed_ns=1000.0)
        assert c.bandwidth_Bps(64) == pytest.approx(64e9)

    def test_bandwidth_zero_without_time(self):
        assert CoreCounters(l3_misses=5).bandwidth_Bps(64) == 0.0

    def test_values_from_matrix_rows(self):
        """The matrix columns are the dataclass fields in order, so a row
        pair builds a value positionally, with plain int/float fields."""
        assert tuple(f.name for f in fields(CoreCounters)) == COUNT_FIELDS + TIME_FIELDS
        counts, times = counter_matrices(2)
        counts[1, COLUMN.l3_misses] = 7
        times[1, COLUMN.remote_ns] = 2.5
        idle, busy = core_counters(counts, times)
        assert idle == CoreCounters()
        assert busy == CoreCounters(l3_misses=7, remote_ns=2.5)
        for f in fields(CoreCounters):
            assert type(getattr(busy, f.name)) is (int if f.name in COUNT_FIELDS else float)


class TestSocketCounters:
    def test_aggregates(self):
        s = SocketCounters(
            cores=[CoreCounters(accesses=10, l3_misses=2), CoreCounters(accesses=5)],
            link_fill_bytes=128,
            elapsed_ns=1000.0,
        )
        assert s.total_accesses == 15
        assert s.total_l3_misses == 2
        assert s.total_bandwidth_Bps(64) == pytest.approx(128 / 1e-6)

    def test_link_utilization_clamped(self):
        s = SocketCounters(link_busy_ns=500.0, elapsed_ns=1000.0)
        assert s.link_utilization() == pytest.approx(0.5)
        assert SocketCounters(elapsed_ns=0.0).link_utilization() == 0.0
