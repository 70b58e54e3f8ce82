"""Index distributions of Table II.

Each distribution describes how the paper's probabilistic benchmark
(Fig. 4) draws buffer indices: ``X()`` has a probability distribution
``f`` over the ``n`` buffer elements. The ten named instances of
Table II — Norm_4/6/8, Exp_4/6/8, Tri_1/2/3 and Uni — are available via
:func:`table_ii_distributions`.

Two capabilities are required of each distribution:

- :meth:`IndexDistribution.sample` — draw element indices (for the
  simulated benchmark), and
- :meth:`IndexDistribution.truncated_cdf` — the continuous CDF over the
  unit buffer (for the analytic EHR model of Eqs. 2–4, evaluated at every
  cache-line boundary in one array pass).

Sampling is rejection-based truncation to ``[0, n)``, and the CDF is the
matching truncated CDF, so model and benchmark see exactly the same
``f`` — the property the paper's validation depends on.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Dict, List

import numpy as np

from ..errors import ModelError


def _libm(fn: Callable[..., float], x: np.ndarray, *consts: float) -> np.ndarray:
    """``fn(xi, *consts)`` for each element ``xi`` of ``x``, with ``fn`` a
    :mod:`math` function. numpy's ``exp``/``log``/``power`` and scipy's
    ``erf`` differ from libm in the last bit on up to a third of the
    inputs these CDFs see, and committed records pin those bits
    (DESIGN.md decision 16)."""
    flat = np.ravel(x)
    vals = map(fn, flat.tolist(), *(repeat(c) for c in consts))
    return np.fromiter(vals, np.float64, count=flat.size).reshape(np.shape(x))


class IndexDistribution(ABC):
    """A distribution over the fractional position ``u in [0, 1)`` of an
    index in an ``n``-element buffer.

    All parameters in Table II scale with the buffer size ``n``, so the
    distribution is defined over the unit interval and stretched to the
    buffer at use time.
    """

    #: Table II pattern name, e.g. ``"Norm_4"``.
    name: str = "abstract"

    @abstractmethod
    def cdf01(self, u: np.ndarray | float) -> np.ndarray:
        """*Untruncated* CDF of the underlying distribution at each ``u``
        (unit-buffer coordinates; may have mass outside [0,1)), as
        float64 of ``u``'s shape; a float gives a 0-d result."""

    @abstractmethod
    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Raw draws in unit coordinates, possibly outside [0, 1)."""

    # -- derived ---------------------------------------------------------------

    def truncated_cdf(self, u: np.ndarray | float) -> np.ndarray:
        """CDF renormalised to the [0,1) support actually addressable,
        at each ``u`` (a float or an array)."""
        lo, hi = self.cdf01(np.array([0.0, 1.0]))
        z = hi - lo
        if z <= 0:
            raise ModelError(f"{self.name}: no mass on the buffer support")
        u = np.minimum(np.maximum(u, 0.0), 1.0)
        return (self.cdf01(u) - lo) / z

    def sample(self, rng: np.random.Generator, size: int, n: int) -> np.ndarray:
        """Draw ``size`` integer indices in ``[0, n)``."""
        if n <= 0:
            raise ModelError("buffer must have at least one element")
        out = np.empty(size, dtype=np.int64)
        filled = 0
        # Rejection: Table II's parameters keep accept rates >= ~95%.
        while filled < size:
            want = size - filled
            draws = self._raw_sample(rng, int(want * 1.25) + 8)
            ok = draws[(draws >= 0.0) & (draws < 1.0)]
            take = min(len(ok), want)
            out[filled : filled + take] = (ok[:take] * n).astype(np.int64)
            filled += take
        # Guard against float rounding u*n == n. Accepted draws are
        # non-negative, so minimum() suffices (and skips np.clip's
        # dispatch overhead — this runs once per simulated chunk).
        np.minimum(out, n - 1, out=out)
        return out

    def sample_block(
        self, rng: np.random.Generator, count: int, size: int, n: int
    ) -> np.ndarray:
        """Draw ``count`` consecutive chunks of ``size`` indices each,
        returned concatenated (``count * size`` entries).

        Must consume the RNG exactly as ``count`` successive
        :meth:`sample` calls would — callers rely on that to stage many
        chunks per call without perturbing any simulated result. An
        empty block (``count <= 0``) is an empty ``int64`` array.

        One raw draw of ``count`` rows of :meth:`sample`'s first-try
        size serves the whole block: numpy's generators fill a large
        request from the same bit stream as successive small ones, and
        a chunk whose first try accepts ``size`` draws makes no second
        one, so the first ``size`` accepted draws of each row are that
        chunk. If any row falls short, that chunk would have drawn again
        mid-stream: the RNG state saved before the draw is restored and
        the chunks are sampled one by one.
        """
        if n <= 0:
            raise ModelError("buffer must have at least one element")
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        if count == 1:
            return self.sample(rng, size, n)
        if size > 0:  # sample() draws nothing for an empty chunk
            per = int(size * 1.25) + 8
            saved = rng.bit_generator.state
            draws = self._raw_sample(rng, count * per).reshape(count, per)
            ok = (draws >= 0.0) & (draws < 1.0)
            rank = np.cumsum(ok, axis=1)
            if rank[:, -1].min() >= size:
                out = (draws[ok & (rank <= size)] * n).astype(np.int64)
                np.minimum(out, n - 1, out=out)
                return out
            rng.bit_generator.state = saved
        return np.concatenate(
            [self.sample(rng, size, n) for _ in range(count)]
        )

    def line_pmf(self, n_elems: int, elems_per_line: int) -> np.ndarray:
        """Probability that one access lands in each cache line of the
        buffer: the per-line mass function the EHR model (Eq. 4) sums.

        Line ``L`` covers elements ``[L*e, (L+1)*e)``; its mass is the
        truncated CDF difference across that span.
        """
        if n_elems <= 0 or elems_per_line <= 0:
            raise ModelError("line_pmf needs positive sizes")
        n_lines = (n_elems + elems_per_line - 1) // elems_per_line
        bounds = np.minimum(
            np.arange(n_lines + 1, dtype=np.float64) * elems_per_line, n_elems
        )
        pmf = np.diff(self.truncated_cdf(bounds / n_elems))
        # Numerical guard: renormalise tiny drift.
        total = pmf.sum()
        if not 0.99 < total < 1.01:
            raise ModelError(f"{self.name}: line pmf sums to {total}")
        return pmf / total

    def std(self) -> float:
        """Standard deviation in unit-buffer coordinates, estimated from
        the truncated distribution (Table II's 'Standard Deviation'
        column, divided by n). Computed numerically on a fine grid."""
        grid = np.linspace(0.0, 1.0, 4097)
        pmf = np.diff(self.truncated_cdf(grid))
        mids = (grid[:-1] + grid[1:]) / 2
        mean = float((pmf * mids).sum())
        var = float((pmf * (mids - mean) ** 2).sum())
        return math.sqrt(max(var, 0.0))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


@dataclass(frozen=True)
class NormalDist(IndexDistribution):
    """Normal with mu = n/2, sigma = n/k (Table II Norm_k)."""

    k: float

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ModelError("Normal k must be positive")
        object.__setattr__(self, "name", f"Norm_{self.k:g}")

    def cdf01(self, u: np.ndarray | float) -> np.ndarray:
        z = (np.asarray(u, dtype=np.float64) - 0.5) * self.k
        return 0.5 * (1.0 + _libm(math.erf, z / math.sqrt(2.0)))

    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(0.5, 1.0 / self.k, size)


@dataclass(frozen=True)
class ExponentialDist(IndexDistribution):
    """Exponential with rate lambda = k/n (Table II Exp_k)."""

    k: float

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ModelError("Exponential k must be positive")
        object.__setattr__(self, "name", f"Exp_{self.k:g}")

    def cdf01(self, u: np.ndarray | float) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        out = np.zeros(u.shape)
        pos = u > 0
        out[pos] = 1.0 - _libm(math.exp, -self.k * u[pos])
        return out

    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.k, size)


@dataclass(frozen=True)
class TriangularDist(IndexDistribution):
    """Triangular over [0, n] with mode b = mode_frac * n (Table II Tri)."""

    mode_frac: float
    index: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.mode_frac <= 1.0:
            raise ModelError("Triangular mode must lie in [0, 1]")
        label = f"Tri_{self.index}" if self.index else f"Tri_b{self.mode_frac:g}"
        object.__setattr__(self, "name", label)

    def cdf01(self, u: np.ndarray | float) -> np.ndarray:
        b = self.mode_frac
        u = np.asarray(u, dtype=np.float64)
        out = np.where(u >= 1, 1.0, 0.0)
        inside, below = (u > 0) & (u < 1), u < b
        rise, fall = inside & below, inside & ~below
        r = u[rise]
        out[rise] = r * r / b
        out[fall] = 1.0 - _libm(math.pow, 1.0 - u[fall], 2) / (1.0 - b)
        return out

    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.triangular(0.0, self.mode_frac, 1.0, size)


@dataclass(frozen=True)
class UniformDist(IndexDistribution):
    """Uniform over the whole buffer (Table II Uni)."""

    def __post_init__(self) -> None:
        object.__setattr__(self, "name", "Uni")

    def cdf01(self, u: np.ndarray | float) -> np.ndarray:
        return np.minimum(np.maximum(np.asarray(u, dtype=np.float64), 0.0), 1.0)

    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.random(size)

    def sample(self, rng: np.random.Generator, size: int, n: int) -> np.ndarray:
        """Fast path: ``random()`` draws lie in [0, 1) by construction,
        so every draw is accepted and the rejection mask of the base
        implementation is provably all-true. Drawing the same
        over-provisioned batch keeps the RNG stream (and therefore every
        simulated result) identical to the generic path."""
        if n <= 0:
            raise ModelError("buffer must have at least one element")
        draws = self._raw_sample(rng, int(size * 1.25) + 8)
        out = (draws[:size] * n).astype(np.int64)
        np.minimum(out, n - 1, out=out)
        return out

    def sample_block(
        self, rng: np.random.Generator, count: int, size: int, n: int
    ) -> np.ndarray:
        """One batched draw for ``count`` chunks, as in the base class
        but without its acceptance mask: every row accepts all its
        draws, so slicing the first ``size`` of each row is
        bit-identical to ``count`` :meth:`sample` calls."""
        if n <= 0:
            raise ModelError("buffer must have at least one element")
        if count <= 0:
            return np.empty(0, dtype=np.int64)
        per = int(size * 1.25) + 8
        draws = self._raw_sample(rng, count * per).reshape(count, per)
        out = (draws[:, :size] * n).astype(np.int64).ravel()
        np.minimum(out, n - 1, out=out)
        return out


@dataclass(frozen=True)
class ZipfDist(IndexDistribution):
    """Zipf-like power law over buffer positions (not in Table II; the
    canonical skewed pattern for key-value and graph workloads, provided
    for studies beyond the paper's grid).

    ``f(u) ~ (u + q)^-alpha`` over unit positions, with a small offset
    ``q`` keeping the head finite. ``alpha=0`` degenerates to uniform.
    """

    alpha: float = 1.0
    q: float = 0.01

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.q <= 0:
            raise ModelError("Zipf needs alpha >= 0 and q > 0")
        object.__setattr__(self, "name", f"Zipf_{self.alpha:g}")
        # The sampler's CDF range, fixed per instance: _raw_sample runs
        # once per simulated chunk.
        lo, hi = self.cdf01(np.array([0.0, 1.0])).tolist()
        object.__setattr__(self, "_lo", lo)
        object.__setattr__(self, "_span", hi - lo)

    def cdf01(self, u: np.ndarray | float) -> np.ndarray:
        # Integral of (x+q)^-alpha from 0 to u (unnormalised; truncation
        # renormalises).
        a, q = self.alpha, self.q
        u = np.asarray(u, dtype=np.float64)
        out = np.zeros(u.shape)
        pos = u > 0
        x = u[pos] + q
        if abs(a - 1.0) < 1e-9:
            out[pos] = _libm(math.log, x / q)
        else:
            out[pos] = (_libm(math.pow, x, 1 - a) - q ** (1 - a)) / (1 - a)
        return out

    def _raw_sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # Inverse-CDF sampling of the truncated distribution.
        a, q = self.alpha, self.q
        y = self._lo + rng.random(size) * self._span
        if abs(a - 1.0) < 1e-9:
            return q * np.exp(y) - q
        return (y * (1 - a) + q ** (1 - a)) ** (1.0 / (1 - a)) - q


def table_ii_distributions() -> Dict[str, IndexDistribution]:
    """The ten memory-access patterns of Table II, keyed by pattern name."""
    dists: List[IndexDistribution] = [
        NormalDist(4),
        NormalDist(6),
        NormalDist(8),
        ExponentialDist(4),
        ExponentialDist(6),
        ExponentialDist(8),
        TriangularDist(0.4, index=1),
        TriangularDist(0.6, index=2),
        TriangularDist(0.8, index=3),
        UniformDist(),
    ]
    return {d.name: d for d in dists}
