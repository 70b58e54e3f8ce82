"""Mattson stack analysis: hand cases, oracle equivalence, properties."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.config import CacheGeometry
from repro.engine import _ckernel
from repro.errors import ModelError
from repro.mem import SetAssociativeCache
from repro.trace import COLD, ReuseProfile, reuse_distances
from repro.trace.stack_distance import _python_reuse_distances


class TestReuseDistances:
    def test_hand_checked_sequence(self):
        #        a  b  c  a  b  b  d  a
        trace = [1, 2, 3, 1, 2, 2, 4, 1]
        d = reuse_distances(trace).tolist()
        # final a: distinct lines since its previous touch = {b, d} = 2
        assert d == [COLD, COLD, COLD, 2, 2, 0, COLD, 2]

    def test_all_cold(self):
        assert (reuse_distances([1, 2, 3]) == COLD).all()

    def test_repeated_single_line(self):
        d = reuse_distances([7, 7, 7, 7]).tolist()
        assert d == [COLD, 0, 0, 0]

    def test_accepts_ndarray(self):
        d = reuse_distances(np.array([1, 1]))
        assert d.tolist() == [COLD, 0]


class TestReuseProfile:
    def test_miss_rate_matches_fully_associative_cache(self):
        """The Mattson inclusion property: stack-derived miss rates must
        equal an exact fully-associative LRU simulation at every
        capacity."""
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 200, size=4000).tolist()
        profile = ReuseProfile.from_trace(trace)
        for cap_lines in (16, 64, 128, 256):
            # Fully associative: 1 set with cap_lines ways.
            geom = CacheGeometry(cap_lines * 64, 64, cap_lines)
            cache = SetAssociativeCache(geom)
            for a in trace:
                cache.access(a)
            expected = cache.stats.miss_rate
            got = profile.miss_rate_at(cap_lines, include_cold=True)
            assert got == pytest.approx(expected, abs=1e-12)

    def test_curve_is_monotone_decreasing(self):
        rng = np.random.default_rng(4)
        profile = ReuseProfile.from_trace(rng.integers(0, 500, size=5000))
        curve = profile.miss_rate_curve([10, 50, 100, 400, 800])
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_uniform_trace_matches_eq4(self):
        """For a long uniform trace over n lines, the steady-state miss
        rate at capacity C is ~1 - C/n — Eq. 4's prediction."""
        rng = np.random.default_rng(5)
        n = 300
        profile = ReuseProfile.from_trace(rng.integers(0, n, size=60_000))
        for c in (60, 150, 240):
            assert profile.miss_rate_at(c, include_cold=False) == pytest.approx(
                1 - c / n, abs=0.03
            )

    def test_cold_misses_equal_distinct_lines(self):
        trace = [1, 2, 1, 3, 2, 9]
        profile = ReuseProfile.from_trace(trace)
        assert profile.cold_misses == profile.distinct_lines == 4

    def test_working_set_summary(self):
        # 90% of reuses concentrated in 4 hot lines + occasional cold sweep.
        rng = np.random.default_rng(6)
        hot = rng.integers(0, 4, size=9000)
        cold = np.arange(10_000, 11_000)
        trace = np.concatenate([hot, cold])
        profile = ReuseProfile.from_trace(trace)
        assert profile.working_set_lines(coverage=0.9) <= 8

    def test_validation(self):
        profile = ReuseProfile.from_trace([1, 1])
        with pytest.raises(ModelError):
            profile.miss_rate_at(0)
        with pytest.raises(ModelError):
            profile.working_set_lines(coverage=0.0)


@given(
    st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=120, deadline=None)
def test_property_stack_equals_cache(trace, cap_lines):
    """Hypothesis: stack analysis == fully-associative LRU, always."""
    profile = ReuseProfile.from_trace(trace)
    geom = CacheGeometry(cap_lines * 64, 64, cap_lines)
    cache = SetAssociativeCache(geom)
    for a in trace:
        cache.access(a)
    assert profile.miss_rate_at(cap_lines) == pytest.approx(
        cache.stats.miss_rate, abs=1e-12
    )


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_property_distance_counts_are_consistent(trace):
    profile = ReuseProfile.from_trace(trace)
    assert profile.cold_misses == len(set(trace))
    assert profile.cold_misses + int(profile.counts.sum()) == len(trace)


#: Traces of line addresses: dense ones (many reuses), runs of repeated
#: lines, and huge addresses spanning the whole int64 range.
_traces = st.one_of(
    st.lists(st.integers(min_value=0, max_value=40), max_size=300),
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=8),
                  st.integers(min_value=1, max_value=6)),
        max_size=50,
    ).map(lambda runs: [a for a, k in runs for _ in range(k)]),
    st.lists(st.sampled_from([-(2**63), -1, 0, 2**62, 2**63 - 1])
             | st.integers(min_value=-(2**63), max_value=2**63 - 1),
             max_size=60),
)


@pytest.mark.skipif(not _ckernel.available(), reason="needs the C kernel")
@given(_traces)
@example([])
@example([5])
@example([3, 3, 3, 3])
@settings(max_examples=200, deadline=None)
def test_property_compiled_equals_python(trace):
    """The compiled loop over dense ids returns the pure-Python Fenwick
    loop's distances, for lists and arrays alike."""
    expected = _python_reuse_distances(trace).tolist()
    for form in (trace, np.array(trace, dtype=np.int64)):
        got = reuse_distances(form)
        assert got.dtype == np.int64
        assert got.tolist() == expected
