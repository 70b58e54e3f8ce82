"""Interference-sweep campaign driver — the heart of Active Measurement.

Section II's protocol: run the application on a socket, occupy the spare
cores with 0..k interference threads of one kind, and record execution
time and counters at every interference level. The sweep result is the
raw material every downstream analysis (capacity inversion, resource-use
bracketing, alternative-machine prediction) consumes.

``workload_factory`` builds a *fresh* measured workload per point — a
single :class:`~repro.engine.thread.SimThread` or a list of them (one
per application process mapped to this socket). Each point runs in a
brand-new simulator so points are independent and reproducible.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..config import SocketConfig
from ..engine import MeasureResult, SimThread, SocketSimulator
from ..errors import MeasurementError
from ..obs.tracer import span as trace_span
from ..workloads import BWThr, CSThr
from .parallel import (
    PointRunner,
    PointTask,
    cache_key,
    default_runner,
    point_seed,
    trial_seed,
)

WorkloadFactory = Callable[[], Union[SimThread, Sequence[SimThread]]]

#: Interference kinds.
CS, BW = "cs", "bw"

_UNSET = object()


@dataclass
class InterferencePoint:
    """Observations at one interference level."""

    kind: str
    k: int
    #: Execution time of the measured workload (max over its processes).
    makespan_ns: float
    #: Cores running measured threads.
    main_cores: List[int]
    #: Per-main-core L3 miss rate over the window.
    l3_miss_rates: Dict[int, float]
    #: Per-main-core Eq. 1 bandwidth (B/s).
    bandwidths_Bps: Dict[int, float]
    #: Mean time per access of the main threads (ns).
    time_per_access_ns: float
    #: Full measurement payload for ad-hoc analysis; ``None`` for points
    #: built from summaries (tests, deserialised records).
    result: Optional[MeasureResult] = field(repr=False, default=None)

    def require_result(self) -> MeasureResult:
        """The full :class:`MeasureResult`, or a clear error when the
        point was built without one."""
        if self.result is None:
            raise MeasurementError(
                f"point (kind={self.kind!r}, k={self.k}) carries no "
                "MeasureResult payload"
            )
        return self.result

    @property
    def mean_miss_rate(self) -> float:
        vals = list(self.l3_miss_rates.values())
        return sum(vals) / len(vals) if vals else 0.0

    @property
    def total_main_bandwidth_Bps(self) -> float:
        return sum(self.bandwidths_Bps.values())


@dataclass
class InterferenceSweep:
    """An ordered set of interference points of one kind (k ascending)."""

    kind: str
    points: List[InterferencePoint]

    def __post_init__(self) -> None:
        if not self.points:
            raise MeasurementError("sweep produced no points")
        dupes = [k for k, n in Counter(p.k for p in self.points).items() if n > 1]
        if dupes:
            raise MeasurementError(
                f"sweep has duplicate interference levels k={sorted(dupes)}; "
                "each k must be measured exactly once"
            )
        self.points = sorted(self.points, key=lambda p: p.k)

    @property
    def baseline(self) -> InterferencePoint:
        """The k=0 (no interference) point."""
        p = self.points[0]
        if p.k != 0:
            raise MeasurementError("sweep has no k=0 baseline point")
        return p

    def point(self, k: int) -> InterferencePoint:
        for p in self.points:
            if p.k == k:
                return p
        raise KeyError(f"no point with k={k}")

    def ks(self) -> List[int]:
        return [p.k for p in self.points]

    def times_ns(self) -> List[float]:
        return [p.makespan_ns for p in self.points]

    def slowdowns(self) -> List[float]:
        base = self.baseline.makespan_ns
        if base <= 0:
            raise MeasurementError("baseline time is non-positive")
        return [p.makespan_ns / base for p in self.points]

    def degradation_onset(self, threshold: float = 0.05) -> Optional[int]:
        """Smallest k whose slowdown exceeds ``1 + threshold``; ``None``
        when the workload never degrades (Fig. 1's flat region).

        This is the paper's bare single-trial rule and it is fragile on
        noisy machines: one OS-noise spike on the wrong point fires it
        spuriously. Campaigns that can afford repeated trials should use
        :meth:`ActiveMeasurement.robust_sweep` and
        :meth:`~repro.core.robust.RobustSweep.degradation_onset`, which
        back the call with a rank test and report its confidence."""
        base = self.baseline.makespan_ns
        for p in self.points:
            if p.makespan_ns / base > 1.0 + threshold:
                return p.k
        return None


class ActiveMeasurement:
    """Campaign driver binding a workload to a socket configuration.

    Parameters
    ----------
    socket:
        Machine under test.
    workload_factory:
        Zero-argument callable returning the measured workload(s); called
        once per interference point.
    warmup_accesses / measure_accesses:
        Windows for infinite workloads (probes). Pass
        ``measure_accesses=None`` for finite application workloads,
        which then run to completion (and ``warmup_accesses=None`` to
        skip warm-up entirely).
    csthr_bytes / bwthr_buffer_bytes / bwthr_n_buffers:
        Interference-thread parameters, in paper units (defaults are the
        paper's: 4 MB CSThr buffers, 44 x 520 KB BWThr buffers).
    runner:
        A :class:`~repro.core.parallel.PointRunner`; every point of every
        sweep is executed through it. ``None`` means a plain serial
        runner (no cache). Because each point runs in a brand-new
        simulator whose seed is a pure function of the point's identity,
        parallel backends produce bit-identical sweeps to serial ones.
    workload_spec:
        Stable string identifying the measured workload for the result
        cache. When omitted, a fingerprint is derived from the factory's
        threads (class names + constructor attributes); pass an explicit
        spec for factories whose behaviour the fingerprint cannot see
        (closures over mutable state).
    per_point_seeds:
        When true, each point's simulator seed is decorrelated via
        :func:`~repro.core.parallel.point_seed` instead of reusing the
        base seed at every point. Either way the seed depends only on
        the point identity, never on execution order.
    """

    def __init__(
        self,
        socket: SocketConfig,
        workload_factory: WorkloadFactory,
        seed: int = 0,
        warmup_accesses: Optional[int] = 50_000,
        measure_accesses: Optional[int] = 50_000,
        csthr_bytes: int = 4 * 1024 * 1024,
        bwthr_buffer_bytes: int = 520 * 1024,
        bwthr_n_buffers: int = 44,
        track_owner: bool = False,
        runner: Optional[PointRunner] = None,
        workload_spec: Optional[str] = None,
        per_point_seeds: bool = False,
    ):
        self.socket = socket
        self.workload_factory = workload_factory
        self.seed = seed
        self.warmup_accesses = warmup_accesses
        self.measure_accesses = measure_accesses
        self.csthr_bytes = csthr_bytes
        self.bwthr_buffer_bytes = bwthr_buffer_bytes
        self.bwthr_n_buffers = bwthr_n_buffers
        self.track_owner = track_owner
        # Fall back to the environment-configured default so campaigns
        # and example scripts pick up REPRO_WORKERS / REPRO_CACHE_DIR
        # without code changes.
        self.runner = runner if runner is not None else default_runner()
        self.workload_spec = workload_spec
        self.per_point_seeds = per_point_seeds
        self._fingerprint: object = _UNSET

    # -- seeding / caching ------------------------------------------------------

    def _seed_for(self, kind: str, k: int, trial: int = 0) -> int:
        """Per-point simulator seed: a pure function of the point's
        identity (see DESIGN.md, deterministic seeding). Trial 0 keeps
        the point's canonical seed; higher trials of a robust sweep are
        decorrelated via :func:`~repro.core.parallel.trial_seed`."""
        if trial:
            return trial_seed(self.seed, kind, k, trial)
        if self.per_point_seeds:
            return point_seed(self.seed, kind, k)
        return self.seed

    def _workload_fingerprint(self) -> Optional[str]:
        """Best-effort stable identity of the measured workload.

        Builds one throw-away workload (without starting it) and hashes
        each thread's class plus its scalar/dataclass constructor
        attributes. Returns ``None`` — disabling caching — when the
        factory fails or a thread carries state the fingerprint cannot
        represent faithfully.
        """
        if self._fingerprint is _UNSET:
            self._fingerprint = self._derive_fingerprint()
        return self._fingerprint  # type: ignore[return-value]

    def _derive_fingerprint(self) -> Optional[str]:
        try:
            workload = self.workload_factory()
            threads = (
                list(workload)
                if isinstance(workload, (list, tuple))
                else [workload]
            )
            parts: List[str] = []
            for t in threads:
                attrs = {}
                for name, value in sorted(vars(t).items()):
                    if isinstance(value, (int, float, str, bool)) or value is None:
                        attrs[name] = value
                    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
                        attrs[name] = repr(value)
                    else:
                        return None  # opaque state: refuse to fingerprint
                cls = type(t)
                parts.append(f"{cls.__module__}.{cls.__qualname__}{attrs!r}")
            return "|".join(parts)
        except Exception:  # noqa: BLE001 - factory may require a live sim
            return None

    def _cache_key(self, kind: str, k: int, trial: int = 0) -> Optional[str]:
        spec = self.workload_spec or self._workload_fingerprint()
        if spec is None:
            return None
        if trial:
            # Trial 0 keeps the pre-trial key layout so existing caches
            # and journals stay valid.
            spec = f"{spec}#trial={trial}"
        return cache_key(
            socket=self.socket,
            workload=spec,
            kind=kind,
            k=k,
            seed=self._seed_for(kind, k, trial),
            warmup_accesses=self.warmup_accesses,
            measure_accesses=self.measure_accesses,
            csthr_bytes=self.csthr_bytes,
            bwthr_buffer_bytes=self.bwthr_buffer_bytes,
            bwthr_n_buffers=self.bwthr_n_buffers,
            track_owner=self.track_owner,
        )

    # -- single point -----------------------------------------------------------

    def _interference_thread(self, kind: str, i: int) -> SimThread:
        if kind == CS:
            return CSThr(buffer_bytes=self.csthr_bytes, name=f"CSThr[{i}]")
        if kind == BW:
            return BWThr(
                buffer_bytes=self.bwthr_buffer_bytes,
                n_buffers=self.bwthr_n_buffers,
                name=f"BWThr[{i}]",
            )
        raise MeasurementError(f"unknown interference kind {kind!r}")

    def run_point(self, kind: str, k: int, trial: int = 0) -> InterferencePoint:
        """Measure the workload against ``k`` interference threads.

        ``trial`` selects an independent repetition with a decorrelated
        seed (used by :func:`~repro.core.robust.robust_sweep`)."""
        workload = self.workload_factory()
        mains: List[SimThread] = (
            list(workload) if isinstance(workload, (list, tuple)) else [workload]
        )
        if not mains:
            raise MeasurementError("workload factory returned no threads")
        free = self.socket.n_cores - len(mains)
        if k > free:
            raise MeasurementError(
                f"cannot run {k} interference threads: only {free} cores free "
                f"({len(mains)} used by the workload)"
            )
        sim = SocketSimulator(
            self.socket,
            seed=self._seed_for(kind, k, trial),
            track_owner=self.track_owner,
        )
        main_cores = [sim.add_thread(m, main=True) for m in mains]
        for i in range(k):
            sim.add_thread(self._interference_thread(kind, i))
        # Engine-kernel spans sit at window granularity — never inside
        # the per-access hot loop (the <3% tracing-overhead budget).
        if self.warmup_accesses:
            with trace_span("engine.warmup", cat="engine", kind=kind, k=k):
                sim.warmup(accesses=self.warmup_accesses)
        with trace_span("engine.measure", cat="engine", kind=kind, k=k):
            result = sim.measure(accesses=self.measure_accesses)

        miss = {c: result.l3_miss_rate(c) for c in main_cores}
        bws = {c: result.bandwidth_Bps(c) for c in main_cores}
        total_acc = sum(result.counters_of(c).accesses for c in main_cores)
        total_ns = sum(result.counters_of(c).elapsed_ns for c in main_cores)
        tpa = total_ns / total_acc if total_acc else 0.0
        return InterferencePoint(
            kind=kind,
            k=k,
            makespan_ns=result.makespan_ns,
            main_cores=main_cores,
            l3_miss_rates=miss,
            bandwidths_Bps=bws,
            time_per_access_ns=tpa,
            result=result,
        )

    # -- sweeps -------------------------------------------------------------------

    def point_task(self, kind: str, k: int, trial: int = 0) -> PointTask:
        """The runnable unit for one (kind, k, trial) measurement —
        picklable, content-keyed, label-stable."""
        label = f"{kind}:k={k}" if trial == 0 else f"{kind}:k={k}:t{trial}"
        return PointTask(
            fn=_run_point_payload,
            args=(self._payload(), kind, k, trial),
            key=self._cache_key(kind, k, trial),
            label=label,
        )

    def _point_tasks(self, kind: str, ks: Sequence[int]) -> List[PointTask]:
        return [self.point_task(kind, k) for k in ks]

    def _payload(self) -> "_PointPayload":
        return _PointPayload(
            socket=self.socket,
            workload_factory=self.workload_factory,
            seed=self.seed,
            warmup_accesses=self.warmup_accesses,
            measure_accesses=self.measure_accesses,
            csthr_bytes=self.csthr_bytes,
            bwthr_buffer_bytes=self.bwthr_buffer_bytes,
            bwthr_n_buffers=self.bwthr_n_buffers,
            track_owner=self.track_owner,
            per_point_seeds=self.per_point_seeds,
        )

    def sweep(self, kind: str, ks: Sequence[int]) -> InterferenceSweep:
        """Run one interference ladder through the configured runner."""
        ks = list(ks)
        with trace_span("sweep", cat="sweep", kind=kind, n_points=len(ks)):
            points = self.runner.run(self._point_tasks(kind, ks))
        return InterferenceSweep(kind, list(points))

    def capacity_sweep(self, ks: Sequence[int] = range(6)) -> InterferenceSweep:
        """Sweep CSThr counts (paper: 0-5 threads x 4 MB)."""
        return self.sweep(CS, ks)

    def bandwidth_sweep(self, ks: Sequence[int] = range(3)) -> InterferenceSweep:
        """Sweep BWThr counts (paper: 0-2 threads, beyond which BWThr
        stops being capacity-neutral, Section III-D)."""
        return self.sweep(BW, ks)

    def robust_sweep(self, kind: str, ks: Sequence[int], n_trials: int = 5):
        """Multi-trial ladder with robust statistics and graceful gaps;
        see :func:`repro.core.robust.robust_sweep`."""
        from .robust import robust_sweep as _robust_sweep

        return _robust_sweep(self, kind, ks, n_trials=n_trials)


@dataclass(frozen=True)
class _PointPayload:
    """Everything a worker needs to rebuild the measurement and run one
    point — deliberately excludes the runner itself (not picklable and
    not needed in the child)."""

    socket: SocketConfig
    workload_factory: WorkloadFactory
    seed: int
    warmup_accesses: Optional[int]
    measure_accesses: Optional[int]
    csthr_bytes: int
    bwthr_buffer_bytes: int
    bwthr_n_buffers: int
    track_owner: bool
    per_point_seeds: bool


def _run_point_payload(
    payload: _PointPayload, kind: str, k: int, trial: int = 0
) -> InterferencePoint:
    """Module-level worker entry point (picklable for process pools)."""
    with trace_span("point", cat="point", kind=kind, k=k, trial=trial):
        return _rebuild_and_run(payload, kind, k, trial)


def _rebuild_and_run(
    payload: _PointPayload, kind: str, k: int, trial: int
) -> InterferencePoint:
    am = ActiveMeasurement(
        payload.socket,
        payload.workload_factory,
        seed=payload.seed,
        warmup_accesses=payload.warmup_accesses,
        measure_accesses=payload.measure_accesses,
        csthr_bytes=payload.csthr_bytes,
        bwthr_buffer_bytes=payload.bwthr_buffer_bytes,
        bwthr_n_buffers=payload.bwthr_n_buffers,
        track_owner=payload.track_owner,
        per_point_seeds=payload.per_point_seeds,
    )
    return am.run_point(kind, k, trial=trial)
