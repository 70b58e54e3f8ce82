"""Flat tag-array LRU store for single-level users.

One set-associative cache level is a pair of flat, C-contiguous int64
arrays of ``n_sets * ways`` slots: ``tags`` (line address per way,
:data:`EMPTY_TAG` when empty) and ``ages`` (monotonic age counter value
at last touch; 0 when empty). LRU then needs no per-set list surgery:

- **probe**: scan the set's ``ways`` slots for the tag;
- **touch**: write the incremented age counter into the hit slot;
- **insert**: overwrite the min-age slot (scanned left to right, so
  empty slots — age 0 — fill first in slot order, reproducing exactly
  the recency order of an append/evict list implementation).

The set-sampled tier-2 estimator (:class:`repro.mem.sampling.SampledL3`)
runs its batches through the compiled ``lru_sampled`` loop when a
compiler is available, and through the pure-Python loop below otherwise.
Both paths are exactly equivalent to per-set recency lists, not
approximately. (The full-hierarchy engine,
:class:`repro.engine.arraypath.ArraySocket`, keeps linked recency lists
beside its tags instead, which find the victim without a scan.)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..engine import _ckernel

EMPTY_TAG = _ckernel.EMPTY_TAG


class TagStore:
    """One set-associative LRU cache level over flat tag/age arrays."""

    def __init__(self, n_sets: int, ways: int):
        if n_sets <= 0 or ways <= 0:
            raise ValueError("TagStore needs positive n_sets and ways")
        self.n_sets = n_sets
        self.ways = ways
        self.tags = np.full(n_sets * ways, EMPTY_TAG, dtype=np.int64)
        self.ages = np.zeros(n_sets * ways, dtype=np.int64)
        #: Monotonic age counter (array so the C loop can bump it in place).
        self._agec = np.zeros(1, dtype=np.int64)
        self._lib = _ckernel.load()

    def access(self, set_index: int, line: int) -> bool:
        """Probe/touch/insert one line in ``set_index``; True on hit."""
        w = self.ways
        tags, ages = self.tags, self.ages
        b = set_index * w
        self._agec[0] += 1
        age = self._agec[0]
        for j in range(w):
            if tags[b + j] == line:
                ages[b + j] = age
                return True
        vs = b
        va = ages[b]
        for j in range(1, w):
            if ages[b + j] < va:
                va = ages[b + j]
                vs = b + j
        tags[vs] = line
        ages[vs] = age
        return False

    def run_sampled_batch(
        self, lines: np.ndarray, set_mask: int, sample_shift: int
    ) -> int:
        """Run a pre-filtered batch of sampled line addresses; returns the
        hit count.

        ``lines`` must contain only lines whose low ``sample_shift`` set
        bits are zero; the store's set index is the full set index
        compacted by ``>> sample_shift`` (a bijection over the sampled
        sets). Uses the compiled loop when available.
        """
        if lines.dtype != np.int64 or not lines.flags.c_contiguous:
            lines = np.ascontiguousarray(lines, dtype=np.int64)
        n = int(lines.size)
        if n == 0:
            return 0
        if self._lib is not None:
            return int(self._lib.lru_sampled(
                self.tags.ctypes.data, self.ages.ctypes.data,
                self._agec.ctypes.data, self.ways,
                set_mask, sample_shift, lines.ctypes.data, n,
            ))
        hits = 0
        shift = sample_shift
        for a in lines.tolist():
            if self.access((a & set_mask) >> shift, a):
                hits += 1
        return hits

    def resident_count(self) -> int:
        return int((self.tags != EMPTY_TAG).sum())

    def flush(self) -> None:
        self.tags.fill(EMPTY_TAG)
        self.ages.fill(0)
        self._agec[0] = 0
