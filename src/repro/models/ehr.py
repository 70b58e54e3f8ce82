"""The Expected Hit Rate model of Section III-C (Eqs. 2-4).

For the probabilistic benchmark of Fig. 4, the probability that a
randomly drawn index hits the cache is

    EHR = sum_i P(i accessed) * P(i in cache)
        = C * sum_i f(i)^2                                    (Eq. 4)

with ``C`` the cache capacity and ``f`` the access mass function. The
model assumes (the paper's three assumptions, validated by
:func:`check_assumptions`):

1. every element has non-zero access probability,
2. the buffer is larger than the cache,
3. steady state (warm cache).

We evaluate the model at cache-line granularity: ``f`` is the per-line
mass function (:meth:`~repro.workloads.distributions.IndexDistribution.line_pmf`)
and ``C`` is the cache capacity in lines, which folds the spatial
locality of Table II's narrow distributions into the model exactly the
way the hardware experiences it.

The *inversion* of Eq. 4 is the paper's measurement instrument: given a
miss rate observed under interference, the effective capacity available
to the benchmark is ``C_eff = (1 - missrate) / sum f^2`` — this is how
Fig. 6 converts miss rates into "MB of L3 actually available".

Of the pmf, Eq. 4 and its assumptions read only three scalars: ``sum
f^2``, the line count and the number of lines without mass.
:class:`EHRModel` holds just those. :meth:`EHRModel.for_distribution`
computes them once per (distribution, ``n_elems``, ``elems_per_line``)
in each process and keeps no pmf: a Fig. 6 grid revisits each probe
buffer at every CSThr count and compute intensity, and one pmf has up
to 76k lines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import ModelError


def sum_f_squared(line_pmf: np.ndarray) -> float:
    """``sum_L f(L)^2`` — the distribution's self-collision mass, the only
    statistic of ``f`` that Eq. 4 needs."""
    pmf = np.asarray(line_pmf, dtype=np.float64)
    if pmf.ndim != 1 or pmf.size == 0:
        raise ModelError("line_pmf must be a non-empty 1-D array")
    if (pmf < 0).any():
        raise ModelError("line_pmf has negative entries")
    total = float(pmf.sum())
    if not 0.99 < total < 1.01:
        raise ModelError(f"line_pmf sums to {total}, expected 1")
    return float((pmf * pmf).sum())


def _hit_rate(cache_lines: int, s2: float) -> float:
    if cache_lines <= 0:
        raise ModelError("cache_lines must be positive")
    return min(1.0, cache_lines * s2)


def _capacity_lines(miss_rate: float, s2: float) -> float:
    if not 0.0 <= miss_rate <= 1.0:
        raise ModelError(f"miss rate {miss_rate} outside [0, 1]")
    if s2 <= 0:
        raise ModelError("degenerate distribution: sum f^2 is zero")
    return (1.0 - miss_rate) / s2


def _check(cache_lines: int, n_lines: int, zero_lines: int) -> None:
    if zero_lines:
        raise ModelError(
            "Eq. 4 requires non-zero access probability on every line "
            f"({zero_lines} lines have zero mass)"
        )
    if n_lines <= cache_lines:
        raise ModelError(
            f"Eq. 4 requires buffer ({n_lines} lines) larger than the "
            f"cache ({cache_lines} lines)"
        )


def expected_hit_rate(cache_lines: int, line_pmf: np.ndarray) -> float:
    """Eq. 4: ``EHR = C * sum f^2``, clipped to [0, 1]."""
    return _hit_rate(cache_lines, sum_f_squared(line_pmf))


def predicted_miss_rate(cache_lines: int, line_pmf: np.ndarray) -> float:
    """Model miss rate for a given available capacity."""
    return 1.0 - expected_hit_rate(cache_lines, line_pmf)


def effective_capacity_lines(miss_rate: float, line_pmf: np.ndarray) -> float:
    """Invert Eq. 4: capacity (in lines) consistent with an observed miss
    rate. May exceed the nominal cache size when the observed miss rate
    is *below* the model's zero-interference prediction (associativity
    under-prediction, see Fig. 5 discussion) — callers decide whether to
    clip."""
    return _capacity_lines(miss_rate, sum_f_squared(line_pmf))


def check_assumptions(cache_lines: int, line_pmf: np.ndarray) -> None:
    """Raise :class:`ModelError` when Eq. 4's validity conditions fail:
    zero-probability lines or a buffer no larger than the cache."""
    pmf = np.asarray(line_pmf, dtype=np.float64)
    _check(cache_lines, pmf.size, int((pmf <= 0).sum()))


@functools.lru_cache(maxsize=256)
def _distribution_facts(
    distribution, n_elems: int, elems_per_line: int
) -> Tuple[float, int, int]:
    """``(sum f^2, lines, lines without mass)`` of
    ``distribution.line_pmf(n_elems, elems_per_line)``, validated by
    :func:`sum_f_squared`. Distributions are frozen dataclasses, so equal
    parameters share an entry; the paper-mode campaign needs about 100."""
    pmf = distribution.line_pmf(n_elems, elems_per_line)
    return sum_f_squared(pmf), pmf.size, int((pmf <= 0).sum())


@dataclass(frozen=True)
class EHRModel:
    """Eq. 4 bound to one benchmark's line pmf, through the three facts
    of it the model reads: ``s2`` (``sum f^2``), ``n_lines`` and
    ``zero_lines`` (lines without mass, which :meth:`check` rejects).

    The experiment drivers build one per probe with
    ``ProbabilisticBenchmark.ehr_model()``, which calls
    :meth:`for_distribution`; ``line_bytes`` lets results be reported in
    bytes instead of lines.
    """

    s2: float
    n_lines: int
    zero_lines: int = 0
    line_bytes: int = 64

    @classmethod
    def for_distribution(
        cls, distribution, n_elems: int, elems_per_line: int, line_bytes: int = 64
    ) -> "EHRModel":
        """The model of ``distribution.line_pmf(n_elems, elems_per_line)``,
        whose facts each process computes once."""
        facts = _distribution_facts(distribution, n_elems, elems_per_line)
        return cls(*facts, line_bytes=line_bytes)

    def miss_rate(self, cache_bytes: int) -> float:
        """Predicted miss rate when ``cache_bytes`` of storage are
        available."""
        return 1.0 - _hit_rate(max(1, cache_bytes // self.line_bytes), self.s2)

    def effective_capacity_bytes(self, miss_rate: float) -> float:
        """Observed miss rate -> effective available storage, in bytes."""
        return _capacity_lines(miss_rate, self.s2) * self.line_bytes

    def check(self, cache_bytes: int) -> None:
        _check(
            max(1, cache_bytes // self.line_bytes), self.n_lines, self.zero_lines
        )
