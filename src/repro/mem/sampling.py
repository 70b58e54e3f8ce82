"""Set-sampled cache simulation (Kessler-style).

Miss *ratios* of a set-associative cache can be estimated by simulating
only ``1/2^k`` of its sets and counting only the accesses that map to
them — set indices are effectively hash-random for the workloads here,
so the sampled sets see a statistically identical stream. This is the
classic inexpensive-simulation result of Kessler et al. (1991) and is
the library's tier-2 fidelity mode (DESIGN.md): it cannot produce
timing (most accesses are simply skipped), only miss ratios, at a
fraction of the simulation's cost. No figure uses it; the
``ablation_sampling`` experiment measures its error.

Usage::

    sampled = SampledL3(socket, sample_shift=3)   # simulate 1/8 of sets
    sampled.run(lines)                            # numpy array of line addrs
    sampled.miss_rate                             # unbiased estimate

The ``sampling`` ablation bench quantifies the estimate's error against
the full simulation across the Table II distributions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..config import SocketConfig
from ..errors import ConfigError
from .tagstore import TagStore


class SampledL3:
    """L3-only, set-sampled LRU miss-ratio estimator.

    Private levels are not modelled: the estimator targets the
    Section III-C regime (random-pattern probes whose accesses
    essentially always miss L1/L2), where the L3 miss *ratio* is the
    measurement of interest. For full-hierarchy semantics use the socket
    kernels (:class:`~repro.engine.arraypath.ArraySocket` /
    :class:`~repro.engine.fastpath.FastSocket`).

    The sampled sets live in a :class:`~repro.mem.tagstore.TagStore` —
    a flat tag/age-array LRU level — indexed by the *compacted* set index (full set index ``>> sample_shift``,
    dense because only all-low-bits-zero sets are sampled).
    """

    def __init__(self, socket: SocketConfig, sample_shift: int = 3):
        if sample_shift < 0:
            raise ConfigError("sample_shift must be non-negative")
        n_sets = socket.l3.n_sets
        if (1 << sample_shift) > n_sets:
            raise ConfigError(
                f"cannot sample 1/{1 << sample_shift} of {n_sets} sets"
            )
        self.socket = socket
        self.sample_shift = sample_shift
        self._set_mask = n_sets - 1
        #: An access is simulated iff its low ``sample_shift`` set bits
        #: are zero.
        self._sample_mask = (1 << sample_shift) - 1
        self._ways = socket.l3.ways
        self._store = TagStore(n_sets >> sample_shift, socket.l3.ways)
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    @property
    def sampled_fraction(self) -> float:
        return 1.0 / (1 << self.sample_shift)

    @property
    def miss_rate(self) -> float:
        """Estimated L3 miss ratio over the sampled accesses."""
        return self.misses / self.accesses if self.accesses else 0.0

    def run(self, lines: Sequence[int] | np.ndarray) -> int:
        """Feed a batch of line addresses; returns how many were in the
        sampled set population."""
        if not isinstance(lines, np.ndarray):
            lines = np.asarray(lines, dtype=np.int64)
        # Pre-filter in numpy: the whole point of sampling is to skip
        # the per-access cost of unsampled lines.
        batch = lines[(lines & self._sample_mask) == 0]
        n = int(batch.size)
        hits = self._store.run_sampled_batch(
            batch, self._set_mask, self.sample_shift
        )
        self.accesses += n
        self.hits += hits
        self.misses += n - hits
        return n

    def reset_counters(self) -> None:
        """Zero counters, keeping cache state (warm-up/measure split)."""
        self.accesses = self.hits = self.misses = 0

    def flush(self) -> None:
        self._store.flush()


def sampled_miss_rate(
    socket: SocketConfig,
    lines: np.ndarray,
    sample_shift: int = 3,
    warmup_fraction: float = 0.5,
) -> float:
    """One-call estimate: warm on the leading fraction of the trace,
    measure on the rest."""
    if not 0.0 <= warmup_fraction < 1.0:
        raise ConfigError("warmup_fraction must be in [0, 1)")
    sim = SampledL3(socket, sample_shift=sample_shift)
    split = int(len(lines) * warmup_fraction)
    sim.run(lines[:split])
    sim.reset_counters()
    sim.run(lines[split:])
    return sim.miss_rate
