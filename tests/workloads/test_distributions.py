"""Table II distribution library."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.workloads import (
    ExponentialDist,
    NormalDist,
    TriangularDist,
    UniformDist,
    ZipfDist,
    table_ii_distributions,
)

ALL = list(table_ii_distributions().values())


class TestTableII:
    def test_ten_patterns(self):
        names = set(table_ii_distributions())
        assert names == {
            "Norm_4", "Norm_6", "Norm_8",
            "Exp_4", "Exp_6", "Exp_8",
            "Tri_1", "Tri_2", "Tri_3", "Uni",
        }

    def test_normal_std_ordering(self):
        """Table II: sigma = n/4 > n/6 > n/8."""
        s4 = NormalDist(4).std()
        s6 = NormalDist(6).std()
        s8 = NormalDist(8).std()
        assert s4 > s6 > s8

    def test_uniform_std_matches_closed_form(self):
        # var of U(0,1) = 1/12.
        assert UniformDist().std() == pytest.approx((1 / 12) ** 0.5, rel=0.01)


@pytest.mark.parametrize("dist", ALL, ids=lambda d: d.name)
class TestEveryDistribution:
    def test_cdf_is_monotone_and_normalised(self, dist):
        grid = np.linspace(0, 1, 101)
        vals = [dist.truncated_cdf(u) for u in grid]
        assert vals[0] == pytest.approx(0.0, abs=1e-12)
        assert vals[-1] == pytest.approx(1.0, abs=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_samples_in_range(self, dist):
        rng = np.random.default_rng(0)
        idx = dist.sample(rng, 5000, 1000)
        assert idx.min() >= 0 and idx.max() < 1000

    def test_line_pmf_sums_to_one(self, dist):
        pmf = dist.line_pmf(n_elems=4096, elems_per_line=16)
        assert pmf.sum() == pytest.approx(1.0)
        assert len(pmf) == 256
        assert (pmf >= 0).all()

    def test_line_pmf_partial_last_line(self, dist):
        pmf = dist.line_pmf(n_elems=100, elems_per_line=16)
        assert len(pmf) == 7  # ceil(100/16)
        assert pmf.sum() == pytest.approx(1.0)

    def test_samples_match_pmf(self, dist):
        """Empirical line frequencies must track the analytic line pmf —
        the consistency the paper's validation hinges on."""
        n_elems, epl = 1600, 16
        rng = np.random.default_rng(1)
        idx = dist.sample(rng, 60_000, n_elems)
        lines = idx // epl
        counts = np.bincount(lines, minlength=n_elems // epl)
        empirical = counts / counts.sum()
        pmf = dist.line_pmf(n_elems, epl)
        # total-variation distance small
        tv = 0.5 * np.abs(empirical - pmf).sum()
        assert tv < 0.03


class TestValidation:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ModelError):
            NormalDist(0)
        with pytest.raises(ModelError):
            ExponentialDist(-2)
        with pytest.raises(ModelError):
            TriangularDist(1.5)

    def test_sample_rejects_empty_buffer(self):
        with pytest.raises(ModelError):
            UniformDist().sample(np.random.default_rng(0), 10, 0)

    def test_line_pmf_rejects_bad_sizes(self):
        with pytest.raises(ModelError):
            UniformDist().line_pmf(0, 16)


@pytest.mark.parametrize("dist", [NormalDist(6), UniformDist()],
                         ids=lambda d: d.name)
class TestEmptyBlock:
    """``sample_block`` has one contract for every distribution: no
    chunks is an empty ``int64`` array and no draw, an empty buffer is
    an error whatever the count."""

    @pytest.mark.parametrize("count", [0, -3])
    def test_no_chunks_is_an_empty_int64_array(self, dist, count):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        out = dist.sample_block(rng, count, 256, 1000)
        assert out.dtype == np.int64 and out.shape == (0,)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("count", [0, 1, 4])
    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_buffer_rejected(self, dist, count, n):
        with pytest.raises(ModelError):
            dist.sample_block(np.random.default_rng(0), count, 256, n)


#: Every distribution whose ``sample_block`` batches raw draws, plus two
#: Normals whose rows often accept fewer than ``size`` draws (about 20%
#: and 68% of draws land in the buffer), so both the batch and its
#: per-chunk fallback run.
BLOCK_DISTS = ALL + [ZipfDist(1.0), NormalDist(0.5), NormalDist(2)]


def _chunk_by_chunk(dist, seed, count, size, n):
    rng = np.random.default_rng(seed)
    chunks = [dist.sample(rng, size, n) for _ in range(count)]
    out = np.concatenate(chunks) if chunks else np.empty(0, np.int64)
    return out, rng.bit_generator.state


def _assert_block_is_chunk_by_chunk(dist, seed, count, size, n):
    rng = np.random.default_rng(seed)
    got = dist.sample_block(rng, count, size, n)
    want, state = _chunk_by_chunk(dist, seed, count, size, n)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == state


@given(dist=st.sampled_from(BLOCK_DISTS), count=st.integers(0, 70),
       size=st.integers(1, 300), n=st.integers(1, 1 << 24),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_property_sample_block_is_chunk_by_chunk(dist, count, size, n, seed):
    _assert_block_is_chunk_by_chunk(dist, seed, count, size, n)


@pytest.mark.parametrize("dist,count,size", [(NormalDist(0.5), 3, 1),
                                              (NormalDist(2), 8, 16)],
                         ids=["Norm_0.5", "Norm_2"])
def test_sample_block_falls_back_when_a_row_falls_short(dist, count, size):
    """Over these seeds some blocks accept ``size`` draws in every row
    and some have a row short by exactly one; the short ones must
    restore the RNG and sample chunk by chunk."""
    per = int(size * 1.25) + 8
    fewest = set()
    for seed in range(60):
        raw = dist._raw_sample(np.random.default_rng(seed), count * per)
        accepted = ((raw >= 0.0) & (raw < 1.0)).reshape(count, per).sum(axis=1)
        fewest.add(min(int(accepted.min()), size) - size)
        _assert_block_is_chunk_by_chunk(dist, seed, count, size, 5000)
    assert {0, -1} <= fewest


@given(
    k=st.sampled_from([4.0, 6.0, 8.0]),
    n=st.integers(min_value=64, max_value=4096),
)
@settings(max_examples=30, deadline=None)
def test_property_normal_sampling_stays_in_buffer(k, n):
    dist = NormalDist(k)
    rng = np.random.default_rng(0)
    idx = dist.sample(rng, 256, n)
    assert ((idx >= 0) & (idx < n)).all()


@given(mode=st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=30, deadline=None)
def test_property_triangular_cdf_at_mode(mode):
    dist = TriangularDist(mode)
    # CDF at the mode equals mode for a 0..1 triangular: F(b) = b/(c-a)*...
    assert dist.cdf01(mode) == pytest.approx(mode, abs=1e-9)


class TestZipf:
    """ZipfDist — the beyond-Table-II skewed pattern."""

    def test_head_concentration(self):
        from repro.workloads import ZipfDist

        pmf = ZipfDist(1.0).line_pmf(16_000, 16)
        # First 5% of lines hold far more than 5% of the mass.
        assert pmf[:50].sum() > 0.3
        # Monotone decreasing head.
        assert pmf[0] > pmf[10] > pmf[100]

    def test_alpha_zero_is_nearly_uniform(self):
        from repro.workloads import ZipfDist

        pmf = ZipfDist(0.0).line_pmf(1600, 16)
        assert pmf.max() / pmf.min() < 1.01

    def test_samples_match_pmf(self):
        import numpy as np
        from repro.workloads import ZipfDist

        dist = ZipfDist(0.8)
        rng = np.random.default_rng(2)
        idx = dist.sample(rng, 60_000, 1600)
        counts = np.bincount(idx // 16, minlength=100)
        empirical = counts / counts.sum()
        pmf = dist.line_pmf(1600, 16)
        tv = 0.5 * abs(empirical - pmf).sum()
        assert tv < 0.03

    def test_validation(self):
        from repro.errors import ModelError
        from repro.workloads import ZipfDist

        with pytest.raises(ModelError):
            ZipfDist(alpha=-1)
        with pytest.raises(ModelError):
            ZipfDist(q=0.0)


# -- array path vs the scalar reference ----------------------------------------
#
# cdf01/truncated_cdf/line_pmf/std evaluate whole grids as arrays, with
# every transcendental call still made on libm. The scalar loop below is
# the definition they must reproduce bit for bit: one cdf01 expression
# per bound, the clamp and the normalisation recomputed per bound.

MiB = 1 << 20
FIG6_SMOKE = [NormalDist(6), ExponentialDist(6), TriangularDist(0.6, index=2),
              UniformDist()]
REFERENCE_DISTS = ALL + [ZipfDist(a) for a in (0.0, 0.5, 1.0, 1.5)] + [
    TriangularDist(0.0), TriangularDist(1.0)]
#: Fig. 6 smoke probes (30/50/74 MB at scale 1/16, 4-byte ints, 64-byte lines).
FIG6_SHAPES = [(size * MiB // 16 // 4, 16) for size in (30, 50, 74)]
ODD_SHAPES = [(100, 16), (7, 3), (1, 1), (17, 16)]


def _ref_cdf01(dist, u):
    if isinstance(dist, NormalDist):
        z = (u - 0.5) * dist.k
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    if isinstance(dist, ExponentialDist):
        if u <= 0:
            return 0.0
        return 1.0 - math.exp(-dist.k * u)
    if isinstance(dist, TriangularDist):
        b = dist.mode_frac
        if u <= 0:
            return 0.0
        if u >= 1:
            return 1.0
        if u < b:
            return u * u / b
        return 1.0 - (1.0 - u) ** 2 / (1.0 - b)
    if isinstance(dist, UniformDist):
        return min(max(u, 0.0), 1.0)
    assert isinstance(dist, ZipfDist)
    a, q = dist.alpha, dist.q
    if u <= 0:
        return 0.0
    if abs(a - 1.0) < 1e-9:
        return math.log((u + q) / q)
    return ((u + q) ** (1 - a) - q ** (1 - a)) / (1 - a)


def _ref_truncated_cdf(dist, u):
    lo, hi = _ref_cdf01(dist, 0.0), _ref_cdf01(dist, 1.0)
    z = hi - lo
    u = min(max(u, 0.0), 1.0)
    return (_ref_cdf01(dist, u) - lo) / z


def _ref_line_pmf(dist, n_elems, elems_per_line):
    n_lines = (n_elems + elems_per_line - 1) // elems_per_line
    bounds = np.minimum(
        np.arange(n_lines + 1, dtype=np.float64) * elems_per_line, n_elems
    )
    cdf_vals = np.array([_ref_truncated_cdf(dist, b / n_elems) for b in bounds])
    pmf = np.diff(cdf_vals)
    return pmf / pmf.sum()


def _ref_std(dist):
    grid = np.linspace(0.0, 1.0, 4097)
    pmf = np.diff(np.array([_ref_truncated_cdf(dist, u) for u in grid]))
    mids = (grid[:-1] + grid[1:]) / 2
    mean = float((pmf * mids).sum())
    var = float((pmf * (mids - mean) ** 2).sum())
    return math.sqrt(max(var, 0.0))


def assert_same_bits(got, want):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("shape", FIG6_SHAPES, ids=lambda s: f"{s[0]}/{s[1]}")
@pytest.mark.parametrize("dist", FIG6_SMOKE, ids=lambda d: d.name)
def test_line_pmf_matches_reference_on_fig6_buffers(dist, shape):
    assert_same_bits(dist.line_pmf(*shape), _ref_line_pmf(dist, *shape))


@pytest.mark.parametrize("dist", REFERENCE_DISTS, ids=lambda d: d.name)
class TestReferenceParity:
    @pytest.mark.parametrize("shape", ODD_SHAPES + [(4096, 16)],
                             ids=lambda s: f"{s[0]}/{s[1]}")
    def test_line_pmf(self, dist, shape):
        assert_same_bits(dist.line_pmf(*shape), _ref_line_pmf(dist, *shape))

    def test_truncated_cdf_on_floats_and_arrays(self, dist):
        grid = np.linspace(-0.25, 1.25, 1201)
        want = [_ref_truncated_cdf(dist, u) for u in grid]
        assert_same_bits(dist.truncated_cdf(grid), want)
        for u in (0.0, 1e-9, 0.25, 0.5, 0.6, 0.999, 1.0, 2.0):
            got = dist.truncated_cdf(u)
            assert np.ndim(got) == 0
            assert_same_bits(got, _ref_truncated_cdf(dist, u))

    def test_std(self, dist):
        assert_same_bits(dist.std(), _ref_std(dist))


_any_dist = st.one_of(
    st.floats(0.5, 16.0).map(NormalDist),
    st.floats(0.5, 16.0).map(ExponentialDist),
    st.floats(0.0, 1.0).map(TriangularDist),
    st.just(UniformDist()),
    st.builds(ZipfDist, st.one_of(st.just(1.0), st.floats(0.0, 2.0)),
              st.floats(1e-3, 0.5)),
)


@given(dist=_any_dist, n_elems=st.integers(1, 5000),
       elems_per_line=st.integers(1, 64))
@settings(max_examples=60, deadline=None)
def test_property_line_pmf_matches_reference(dist, n_elems, elems_per_line):
    assert_same_bits(dist.line_pmf(n_elems, elems_per_line),
                     _ref_line_pmf(dist, n_elems, elems_per_line))
