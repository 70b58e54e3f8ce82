"""Reuse-distance (Mattson stack) analysis.

For an LRU cache, an access hits a fully-associative cache of capacity
``C`` iff its *reuse distance* — the number of distinct lines touched
since the previous access to the same line — is smaller than ``C``
(Mattson et al. 1970). One pass over a trace therefore yields the whole
miss-rate-vs-capacity curve.

This gives the library a second, independent instrument for the
quantity the paper measures with interference (the miss rate a workload
would see at a given effective capacity), and the
``model-vs-stack-distance`` ablation bench uses it to check Eq. 4
against ground truth for the Table II benchmarks.

Implementation: the classic O(N log N) algorithm with a Fenwick tree
over access timestamps, run by the compiled ``reuse_distances`` of
:mod:`repro.engine._ckernel` over dense line ids. Without a C compiler
(or with ``REPRO_NO_CKERNEL=1``) the same loop runs in pure Python,
with the same result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..engine import _ckernel
from ..errors import ModelError

#: Reuse distance assigned to cold (first-touch) accesses.
COLD = -1


class _Fenwick:
    """Binary indexed tree over ``n`` slots counting live timestamps."""

    __slots__ = ("n", "tree")

    def __init__(self, n: int):
        self.n = n
        self.tree = [0] * (n + 1)

    def add(self, i: int, delta: int) -> None:
        i += 1
        tree = self.tree
        n = self.n
        while i <= n:
            tree[i] += delta
            i += i & (-i)

    def prefix_sum(self, i: int) -> int:
        """Sum of slots [0, i]."""
        i += 1
        s = 0
        tree = self.tree
        while i > 0:
            s += tree[i]
            i -= i & (-i)
        return s


def reuse_distances(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """Per-access LRU reuse distances (:data:`COLD` for first touches).

    ``trace`` is a sequence of line addresses. The distance counts
    *distinct* lines touched strictly between two accesses to the same
    line, which equals the line's LRU stack depth at the second access.
    """
    lib = _ckernel.load()
    if lib is None:
        return _python_reuse_distances(trace)
    addrs = np.asarray(trace)
    out = np.empty(addrs.size, dtype=np.int64)
    if addrs.size == 0:
        return out
    # Dense ids index the C loop's per-line table.
    distinct, ids = np.unique(addrs, return_inverse=True)
    ids = np.ascontiguousarray(ids.reshape(-1), dtype=np.int64)
    last = np.full(distinct.size, -1, dtype=np.int64)
    tree = np.zeros(ids.size + 1, dtype=np.int64)
    lib.reuse_distances(ids.ctypes.data, ids.size, last.ctypes.data,
                        tree.ctypes.data, out.ctypes.data)
    return out


def _python_reuse_distances(trace: Sequence[int] | np.ndarray) -> np.ndarray:
    """:func:`reuse_distances` in pure Python, for hosts without the C
    kernel."""
    if isinstance(trace, np.ndarray):
        trace = trace.tolist()
    n = len(trace)
    fen = _Fenwick(n)
    last_pos: Dict[int, int] = {}
    out = np.empty(n, dtype=np.int64)
    add = fen.add
    psum = fen.prefix_sum
    for t, addr in enumerate(trace):
        prev = last_pos.get(addr)
        if prev is None:
            out[t] = COLD
        else:
            # Distinct lines since prev = live markers in (prev, t).
            out[t] = psum(t - 1) - psum(prev)
            add(prev, -1)
        add(t, 1)
        last_pos[addr] = t
    return out


@dataclass(frozen=True)
class ReuseProfile:
    """Histogram of reuse distances for one trace."""

    #: counts[d] = number of accesses with reuse distance d.
    counts: np.ndarray
    cold_misses: int
    n_accesses: int

    @classmethod
    def from_trace(cls, trace: Sequence[int] | np.ndarray) -> "ReuseProfile":
        dists = reuse_distances(trace)
        cold = int((dists == COLD).sum())
        warm = dists[dists >= 0]
        max_d = int(warm.max()) if warm.size else 0
        counts = np.bincount(warm, minlength=max_d + 1)
        return cls(counts=counts, cold_misses=cold, n_accesses=len(dists))

    def miss_rate_at(self, capacity_lines: int, include_cold: bool = True) -> float:
        """Fully-associative LRU miss rate at the given capacity.

        An access misses iff its reuse distance >= capacity (or it is a
        cold miss). ``include_cold=False`` gives the steady-state rate
        the EHR model predicts.
        """
        if capacity_lines <= 0:
            raise ModelError("capacity must be positive")
        hits = int(self.counts[:capacity_lines].sum())
        warm = int(self.counts.sum())
        if include_cold:
            total = self.n_accesses
            return (total - hits) / total if total else 0.0
        return (warm - hits) / warm if warm else 0.0

    def miss_rate_curve(
        self, capacities: Sequence[int], include_cold: bool = False
    ) -> np.ndarray:
        """Vector of miss rates over a capacity ladder."""
        return np.array(
            [self.miss_rate_at(c, include_cold=include_cold) for c in capacities]
        )

    def working_set_lines(self, coverage: float = 0.9) -> int:
        """Smallest capacity whose hit coverage reaches ``coverage`` of
        the asymptotic (all-warm-hits) level — a one-number working-set
        summary."""
        if not 0.0 < coverage <= 1.0:
            raise ModelError("coverage must be in (0, 1]")
        warm = int(self.counts.sum())
        if warm == 0:
            return 0
        target = coverage * warm
        cum = np.cumsum(self.counts)
        idx = int(np.searchsorted(cum, target))
        return idx + 1

    @property
    def distinct_lines(self) -> int:
        """Number of distinct lines in the trace (== cold misses)."""
        return self.cold_misses
