"""Address-space allocator and Buffer index math."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError
from repro.mem import AddressSpace


class TestAllocation:
    def test_buffers_never_overlap(self):
        space = AddressSpace(line_bytes=64)
        bufs = [space.alloc(1000, elem_bytes=4) for _ in range(10)]
        for i, a in enumerate(bufs):
            for b in bufs[i + 1 :]:
                assert a.end <= b.base or b.end <= a.base

    def test_buffers_never_share_lines(self):
        """A guard line separates allocations (the paper's threads must
        not share cache lines)."""
        space = AddressSpace(line_bytes=64)
        a = space.alloc(100, elem_bytes=4)
        b = space.alloc(100, elem_bytes=4)
        a_lines = set(range(a.base_line, a.base_line + a.n_lines))
        b_lines = set(range(b.base_line, b.base_line + b.n_lines))
        assert not (a_lines & b_lines)

    def test_base_is_line_aligned(self):
        space = AddressSpace(line_bytes=64)
        space.alloc(33, elem_bytes=1)
        b = space.alloc(100, elem_bytes=4)
        assert b.base % 64 == 0

    def test_rejects_zero_size(self):
        with pytest.raises(AllocationError):
            AddressSpace().alloc(0)

    def test_rejects_indivisible_elem_size(self):
        with pytest.raises(AllocationError):
            AddressSpace().alloc(10, elem_bytes=3)

    def test_exhaustion(self):
        space = AddressSpace(line_bytes=64, capacity_bytes=4096)
        with pytest.raises(AllocationError, match="exhausted"):
            for _ in range(100):
                space.alloc(1024)

    def test_alloc_elems(self):
        b = AddressSpace().alloc_elems(100, elem_bytes=8)
        assert b.size_bytes == 800 and b.n_elems == 100

    def test_allocations_listing(self):
        space = AddressSpace()
        a = space.alloc(64, label="a")
        b = space.alloc(64, label="b")
        assert [x.label for x in space.allocations()] == ["a", "b"]


class TestBufferIndexMath:
    def test_line_of_index_matches_vectorised(self):
        space = AddressSpace(line_bytes=64)
        buf = space.alloc(4096, elem_bytes=4)
        idx = np.arange(0, buf.n_elems, 7)
        vec = buf.lines_of_indices(idx)
        scalar = [buf.line_of_index(int(i)) for i in idx]
        assert vec.tolist() == scalar

    def test_sixteen_ints_per_line(self):
        space = AddressSpace(line_bytes=64)
        buf = space.alloc(4096, elem_bytes=4)
        assert buf.line_of_index(0) == buf.line_of_index(15)
        assert buf.line_of_index(0) != buf.line_of_index(16)

    def test_out_of_range_index_raises(self):
        buf = AddressSpace().alloc(64, elem_bytes=4)
        with pytest.raises(IndexError):
            buf.line_of_index(16)
        with pytest.raises(IndexError):
            buf.line_of_index(-1)

    def test_sequential_lines_cover_buffer(self):
        buf = AddressSpace(line_bytes=64).alloc(640, elem_bytes=4)
        lines = buf.sequential_lines()
        assert len(lines) == buf.n_lines == 10
        assert lines[0] == buf.base_line


@given(
    sizes=st.lists(
        st.integers(min_value=4, max_value=10_000).map(lambda n: n * 4),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=50, deadline=None)
def test_property_no_line_sharing_ever(sizes):
    space = AddressSpace(line_bytes=64)
    seen_lines: set[int] = set()
    for size in sizes:
        buf = space.alloc(size, elem_bytes=4)
        lines = set(range(buf.base_line, buf.base_line + buf.n_lines))
        assert not (lines & seen_lines)
        seen_lines |= lines


class TestFailedAllocLeavesStateIntact:
    """Regression: a failed alloc must not move the bump pointer (the
    capacity check used to run *after* committing ``_next``)."""

    def test_used_bytes_unchanged_after_failure(self):
        space = AddressSpace(line_bytes=64, capacity_bytes=4096)
        space.alloc(1024)
        used = space.used_bytes
        n_allocs = len(space.allocations())
        with pytest.raises(AllocationError, match="exhausted"):
            space.alloc(1 << 20)
        assert space.used_bytes == used
        assert len(space.allocations()) == n_allocs

    def test_allocator_usable_after_failure(self):
        space = AddressSpace(line_bytes=64, capacity_bytes=4096)
        with pytest.raises(AllocationError):
            space.alloc(1 << 20)
        b = space.alloc(512)  # plenty of room left: must succeed
        assert b.size_bytes == 512
        # And the buffer sits exactly where it would have without the
        # failed attempt in between.
        fresh = AddressSpace(line_bytes=64, capacity_bytes=4096).alloc(512)
        assert b.base == fresh.base


class TestPagePlacement:
    def test_single_domain_homes_everything_on_zero(self):
        space = AddressSpace(line_bytes=64)
        b = space.alloc(4096)
        homes = space.homes_of_lines(b.sequential_lines())
        assert (homes == 0).all()

    def test_first_touch_follows_touch_socket(self):
        space = AddressSpace(line_bytes=64, n_domains=2, page_bytes=1024)
        a = space.alloc(4096)
        space.set_touch_socket(1)
        b = space.alloc(4096)
        assert (space.homes_of_lines(a.sequential_lines()) == 0).all()
        homes_b = space.homes_of_lines(b.sequential_lines())
        # All of b's pages except possibly the first (which can straddle
        # a's last, already-homed page) belong to socket 1.
        assert (homes_b[space.page_bytes // 64:] == 1).all()
        assert homes_b.max() == 1

    def test_straddling_page_keeps_first_home(self):
        """First-touch is per *page*: the second allocation cannot
        re-home a page the first already touched."""
        space = AddressSpace(line_bytes=64, n_domains=2, page_bytes=1024)
        a = space.alloc(256)  # well inside page 0
        space.set_touch_socket(1)
        b = space.alloc(256)  # also page 0
        assert space.home_of_line(b.base_line) == 0

    def test_interleave_round_robins_pages(self):
        space = AddressSpace(
            line_bytes=64, n_domains=2, placement="interleave", page_bytes=1024
        )
        b = space.alloc(8 * 1024)
        lines = b.sequential_lines()
        pages = lines >> (10 - 6)  # page_shift - line_shift
        homes = space.homes_of_lines(lines)
        assert (homes == pages % 2).all()
        assert set(homes.tolist()) == {0, 1}

    def test_explicit_home_overrides_policy(self):
        space = AddressSpace(line_bytes=64, n_domains=4, page_bytes=1024)
        b = space.alloc(4096, home=3)
        homes = space.homes_of_lines(b.sequential_lines())
        assert (homes == 3).all()

    def test_never_allocated_pages_home_zero(self):
        space = AddressSpace(line_bytes=64, n_domains=2, page_bytes=1024)
        assert space.home_of_line(1 << 40) == 0
        far = np.array([1 << 40, 1 << 41], dtype=np.int64)
        assert (space.homes_of_lines(far) == 0).all()
        # Home the table's last page on socket 1 without growing the
        # table: a page past the table still homes 0 in both lookups,
        # not the last entry's home.
        n_pages = space.page_homes.size
        space.alloc(n_pages * 1024 - 1024 - 128)  # bump to the last page
        last = space.alloc(512, home=1)
        assert space.page_homes.size == n_pages
        assert space.home_of_line(last.base_line) == 1
        past = n_pages << space.page_line_shift  # first line past the table
        assert space.home_of_line(past) == 0
        lines = np.array([last.base_line, past, past + 1], dtype=np.int64)
        assert space.homes_of_lines(lines).tolist() == [1, 0, 0]

    def test_validation(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            AddressSpace(n_domains=0)
        with pytest.raises(ConfigError):
            AddressSpace(placement="random")
        with pytest.raises(ConfigError):
            AddressSpace(line_bytes=64, page_bytes=32)  # page < line
        with pytest.raises(ConfigError):
            AddressSpace(page_bytes=3000)  # not a power of two
        space = AddressSpace(n_domains=2)
        with pytest.raises(ConfigError):
            space.set_touch_socket(2)
        with pytest.raises(ConfigError):
            space.alloc(64, home=5)

    def test_page_table_grows_on_demand(self):
        space = AddressSpace(line_bytes=64, n_domains=2, page_bytes=1024)
        space.set_touch_socket(1)
        big = space.alloc(16 * 1024 * 1024)  # far beyond the initial table
        assert space.home_of_line(big.base_line + big.n_lines - 1) == 1
