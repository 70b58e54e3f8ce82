"""Eq. 4 (EHR) model and its inversion."""

import re

import numpy as np
import pytest

from repro.engine import ThreadContext
from repro.errors import ModelError
from repro.experiments import common
from repro.mem import AddressSpace
from repro.models import ehr
from repro.models import (
    EHRModel,
    check_assumptions,
    effective_capacity_lines,
    expected_hit_rate,
    predicted_miss_rate,
    sum_f_squared,
)
from repro.workloads import (
    ExponentialDist,
    IndexDistribution,
    NormalDist,
    ProbabilisticBenchmark,
    TriangularDist,
    UniformDist,
    table_ii_distributions,
)


def uniform_pmf(n_lines):
    return np.full(n_lines, 1.0 / n_lines)


class TestSumFSquared:
    def test_uniform_closed_form(self):
        """Uniform over n lines: sum f^2 = 1/n."""
        assert sum_f_squared(uniform_pmf(100)) == pytest.approx(0.01)

    def test_concentration_increases_s2(self):
        n = 256
        uni = UniformDist().line_pmf(n * 16, 16)
        norm = NormalDist(8).line_pmf(n * 16, 16)
        assert sum_f_squared(norm) > sum_f_squared(uni)

    def test_rejects_unnormalised(self):
        with pytest.raises(ModelError, match="sums to"):
            sum_f_squared(np.array([0.2, 0.2]))

    def test_rejects_negative(self):
        with pytest.raises(ModelError):
            sum_f_squared(np.array([1.2, -0.2]))

    def test_rejects_empty(self):
        with pytest.raises(ModelError):
            sum_f_squared(np.array([]))


class TestEq4:
    def test_uniform_ehr_is_capacity_ratio(self):
        """EHR = C * (1/n): the paper's 'Cache capacity / Buffer size'."""
        pmf = uniform_pmf(500)
        assert expected_hit_rate(200, pmf) == pytest.approx(0.4)
        assert predicted_miss_rate(200, pmf) == pytest.approx(0.6)

    def test_clipped_at_one_when_buffer_fits(self):
        assert expected_hit_rate(10_000, uniform_pmf(100)) == 1.0

    def test_monotone_in_capacity(self):
        pmf = NormalDist(6).line_pmf(4096, 16)
        rates = [predicted_miss_rate(c, pmf) for c in (10, 50, 100, 200)]
        assert rates == sorted(rates, reverse=True)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ModelError):
            expected_hit_rate(0, uniform_pmf(10))


class TestInversion:
    def test_roundtrip_recovers_capacity(self):
        """inversion(miss_rate(C)) == C while EHR is not clipped — the
        measurement instrument of Section III-C3."""
        pmf = uniform_pmf(1000)
        for c in (100, 250, 500, 900):
            mr = predicted_miss_rate(c, pmf)
            assert effective_capacity_lines(mr, pmf) == pytest.approx(c)

    def test_rejects_out_of_range_miss_rate(self):
        with pytest.raises(ModelError):
            effective_capacity_lines(1.5, uniform_pmf(10))

    def test_monotone_in_miss_rate(self):
        pmf = uniform_pmf(100)
        caps = [effective_capacity_lines(m, pmf) for m in (0.2, 0.5, 0.8)]
        assert caps == sorted(caps, reverse=True)


class TestAssumptions:
    def test_zero_probability_line_rejected(self):
        pmf = np.array([0.5, 0.5, 0.0, 0.0])
        pmf = pmf / pmf.sum()
        with pytest.raises(ModelError, match="non-zero"):
            check_assumptions(2, pmf)

    def test_buffer_must_exceed_cache(self):
        with pytest.raises(ModelError, match="larger than the cache"):
            check_assumptions(200, uniform_pmf(100))

    def test_valid_case_passes(self):
        check_assumptions(50, uniform_pmf(100))


class TestEHRModelWrapper:
    def test_byte_conversions(self):
        pmf = uniform_pmf(1000)
        model = EHRModel(sum_f_squared(pmf), pmf.size, line_bytes=64)
        mr = model.miss_rate(cache_bytes=500 * 64)
        assert mr == pytest.approx(0.5)
        assert model.effective_capacity_bytes(mr) == pytest.approx(500 * 64)

    def test_check_delegates(self):
        model = EHRModel(0.01, 100, line_bytes=64)
        with pytest.raises(ModelError):
            model.check(cache_bytes=100 * 64)

    def test_check_rejects_zero_mass_lines(self):
        with pytest.raises(ModelError, match=r"\(2 lines have zero mass\)"):
            EHRModel(0.5, 4, zero_lines=2).check(64)


@pytest.fixture
def line_pmf_calls(monkeypatch):
    """An empty Eq. 4 memo, and the keys ``line_pmf`` is called with."""
    calls = []
    raw = IndexDistribution.line_pmf

    def counting(dist, n_elems, elems_per_line):
        calls.append((dist, n_elems, elems_per_line))
        return raw(dist, n_elems, elems_per_line)

    monkeypatch.setattr(IndexDistribution, "line_pmf", counting)
    ehr._distribution_facts.cache_clear()
    yield calls
    ehr._distribution_facts.cache_clear()


class TestMemoisedModel:
    def test_one_pmf_per_probe_buffer_over_a_fig6_grid(self, line_pmf_calls):
        """Fig. 6's smoke grid revisits 12 probe buffers at 2 intensities
        and 6 CSThr counts: 144 models from 12 pmfs."""
        env = common.default_env("smoke")
        dists = table_ii_distributions()
        models = {}
        for ops in common.ops_per_load("smoke"):
            for k in common.csthr_counts("smoke"):
                for size_mb in common.probe_buffer_sizes_mb("smoke"):
                    for name in common.distribution_names("smoke"):
                        probe = ProbabilisticBenchmark(
                            dists[name], common.probe_buffer_bytes(size_mb),
                            ops_per_access=ops,
                        )
                        probe.start(ThreadContext(
                            socket=env.socket,
                            addrspace=AddressSpace(line_bytes=env.socket.line_bytes),
                            rng=np.random.default_rng(k), core_id=0,
                        ))
                        models[ops, k, size_mb, name] = probe.ehr_model()
        assert len(models) == 144
        assert len(line_pmf_calls) == len(set(line_pmf_calls)) == 12
        for (ops, k, size_mb, name), model in models.items():
            assert model == models[1, 0, size_mb, name]
            assert model.line_bytes == env.socket.line_bytes

    @pytest.mark.parametrize("dist", [NormalDist(6), ExponentialDist(8),
                                      TriangularDist(0.6, index=2), UniformDist()],
                             ids=lambda d: d.name)
    def test_memoised_s2_is_the_pmf_s2(self, dist, line_pmf_calls):
        """Keys that differ in one size only must not share an entry;
        every memoised Σf² is the bits of the pmf's."""
        for n_elems, per_line in [(4096, 16), (4096, 8), (4000, 16), (4096, 16)]:
            model = EHRModel.for_distribution(dist, n_elems, per_line)
            pmf = dist.line_pmf(n_elems, per_line)
            assert model.s2.hex() == sum_f_squared(pmf).hex()
            assert (model.n_lines, model.zero_lines) == (pmf.size, 0)
        assert len(line_pmf_calls) == 3 + 4  # 3 distinct keys + this test's 4

    @pytest.mark.parametrize("dist,n_elems", [(NormalDist(8), 50_000),
                                              (ExponentialDist(4), 31_000),
                                              (UniformDist(), 999 * 16)],
                             ids=lambda v: getattr(v, "name", str(v)))
    def test_outputs_are_the_module_functions(self, dist, n_elems):
        """The model reads Σf² once; its outputs keep the bits of the
        functions that recompute it from the pmf."""
        model = EHRModel.for_distribution(dist, n_elems, 16, line_bytes=64)
        pmf = dist.line_pmf(n_elems, 16)
        for lines in (1, 17, 100, 640, 5000, 10**6):
            assert model.miss_rate(lines * 64 + 63).hex() == (
                predicted_miss_rate(lines, pmf).hex())
        for mr in (0.0, 0.1234567, 0.5, 0.999, 1.0):
            assert model.effective_capacity_bytes(mr).hex() == (
                (effective_capacity_lines(mr, pmf) * 64).hex())
        for lines in (10, pmf.size - 1, pmf.size, pmf.size + 1):
            try:
                check_assumptions(lines, pmf)
            except ModelError as err:
                with pytest.raises(ModelError, match=re.escape(str(err))):
                    model.check(lines * 64)
            else:
                model.check(lines * 64)
