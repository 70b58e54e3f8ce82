"""Effective-capacity calibration (Section III-C3).

How many MB of shared cache do ``k`` CSThrs actually leave to a
co-runner? The paper answers by running probes with *known* miss-rate
models (the Fig. 4 benchmarks) against k CSThrs and inverting Eq. 4.
This module packages that procedure: the calibration result is the
``k -> available capacity`` table that converts interference sweeps of
real applications into resource-availability axes (the paper's
15/12/7/5/2.5 MB ladder).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import SocketConfig
from ..engine import SocketSimulator
from ..errors import MeasurementError
from ..units import MiB
from ..workloads import CSThr, ProbabilisticBenchmark, UniformDist, IndexDistribution


@dataclass
class CapacityCalibration:
    """``k CSThrs -> bytes of L3 effectively available`` (paper units).

    ``per_distribution`` retains the per-probe estimates so the Fig. 6
    dispersion bands can be reported.
    """

    socket: SocketConfig
    csthr_bytes: int
    available_bytes: Dict[int, float] = field(default_factory=dict)
    per_distribution: Dict[int, Dict[str, float]] = field(default_factory=dict)

    def available(self, k: int) -> float:
        try:
            return self.available_bytes[k]
        except KeyError:
            raise MeasurementError(f"no calibration for k={k} CSThrs") from None

    def ladder(self) -> List[float]:
        return [self.available_bytes[k] for k in sorted(self.available_bytes)]

    def naive_available(self, k: int) -> float:
        """The naive estimate: nominal L3 minus k buffer footprints.

        The gap between this and :meth:`available` is what makes the
        measured calibration necessary (LRU contention does not remove
        exactly one buffer's worth per thread)."""
        nominal = self.socket.unscaled_bytes(self.socket.l3.capacity_bytes)
        return max(0.0, nominal - k * self.csthr_bytes)


def measure_effective_capacity(
    socket: SocketConfig,
    k_csthrs: int,
    distribution: Optional[IndexDistribution] = None,
    probe_buffer_bytes: int = 50 * MiB,
    ops_per_access: int = 1,
    csthr_bytes: int = 4 * MiB,
    warmup_accesses: int = 60_000,
    measure_accesses: int = 40_000,
    seed: int = 0,
) -> float:
    """One Section III-C3 measurement: probe + k CSThrs -> inverted Eq. 4
    capacity, in paper-unit bytes."""
    if distribution is None:
        distribution = UniformDist()
    probe = ProbabilisticBenchmark(
        distribution, probe_buffer_bytes, ops_per_access=ops_per_access
    )
    sim = SocketSimulator(socket, seed=seed)
    core = sim.add_thread(probe, main=True)
    free = socket.n_cores - 1
    if k_csthrs > free:
        raise MeasurementError(f"{k_csthrs} CSThrs need {k_csthrs} free cores, have {free}")
    for i in range(k_csthrs):
        sim.add_thread(CSThr(buffer_bytes=csthr_bytes, name=f"CSThr[{i}]"))
    sim.warmup(accesses=warmup_accesses)
    result = sim.measure(accesses=measure_accesses)
    sim_bytes = probe.ehr_model().effective_capacity_bytes(result.l3_miss_rate(core))
    return socket.unscaled_bytes(int(sim_bytes))


def calibrate_capacity(
    socket: SocketConfig,
    ks: Sequence[int] = range(6),
    distributions: Optional[Sequence[IndexDistribution]] = None,
    probe_buffer_bytes: int = 50 * MiB,
    csthr_bytes: int = 4 * MiB,
    warmup_accesses: int = 60_000,
    measure_accesses: int = 40_000,
    seed: int = 0,
) -> CapacityCalibration:
    """Build the ``k -> available capacity`` table, averaging the
    inverted-Eq. 4 estimate over one or more probe distributions."""
    if distributions is None:
        distributions = [UniformDist()]
    calib = CapacityCalibration(socket=socket, csthr_bytes=csthr_bytes)
    for k in ks:
        per_dist: Dict[str, float] = {}
        for dist in distributions:
            per_dist[dist.name] = measure_effective_capacity(
                socket,
                k,
                distribution=dist,
                probe_buffer_bytes=probe_buffer_bytes,
                csthr_bytes=csthr_bytes,
                warmup_accesses=warmup_accesses,
                measure_accesses=measure_accesses,
                seed=seed,
            )
        calib.per_distribution[k] = per_dist
        calib.available_bytes[k] = sum(per_dist.values()) / len(per_dist)
    return calib


#: The paper's published ladder for Xeon20MB (Section III-C3 / IV): with
#: 1..5 CSThrs of 4 MB, the L3 effectively available to an application.
PAPER_XEON20MB_LADDER_MB = {0: 20.0, 1: 15.0, 2: 12.0, 3: 7.0, 4: 5.0, 5: 2.5}
