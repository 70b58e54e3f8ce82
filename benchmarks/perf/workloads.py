"""The four benchmark workloads.

Each workload is a fixed round of work built from ``(seed, scale)``.
``prepare()`` imports what the round calls and builds its inputs (both
count as set-up time); ``run(span)`` performs one round and returns a
:class:`RoundOutput`; ``check(out)`` re-verifies the round outside the
timed region. ``span(metric)`` opens a ledger span around the
benchmark's own call into the repo, and is a no-op when untraced.

Why these four (README.md maps each layer to the metrics it moves):

- ``capacity_grid`` — the Fig. 6 capacity-probe grid: the campaign's
  largest phase and the only heavy EHR-inversion load.
- ``paper_mix`` — the bandwidth side and the 2-socket node: paper-mode
  calibration, Figs. 7-12, detection accuracy and NUMA drivers.
- ``short_points`` — thousands of tiny points, where per-point
  orchestration dominates and the kernel barely matters.
- ``service_drain`` — the durable measurement service: broker, agent,
  shared cache and journals, then ``repro query`` reads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, ContextManager, Dict, List

import numpy as np

SCALES = ("full", "tiny")

#: The paper's Fig. 6 capacity ladder (MB at k = 0..5 CSThrs).
PAPER_LADDER_MB = {0: 20.0, 1: 15.0, 2: 12.0, 3: 7.0, 4: 5.0, 5: 2.5}
#: Calibration anchors: STREAM GB/s, one BWThr GB/s, BWThrs to saturate.
PAPER_STREAM_GBPS, PAPER_BWTHR_GBPS, PAPER_SATURATE = 17.0, 2.8, 7
#: Largest calibration error the output check accepts.
CALIB_ERR_LIMIT_PCT = 25.0

Span = Callable[[str], ContextManager[None]]


def no_span(metric: str) -> ContextManager[None]:
    return contextlib.nullcontext()


@dataclasses.dataclass
class RoundOutput:
    """What one round produced, besides the probe counters."""

    #: sha256 of the round's simulated outputs as canonical JSON.
    digest: str
    #: Seconds per top-level request: driver call, sweep or service job.
    job_latencies: List[float]
    #: Seconds per ``repro query`` call (service_drain only).
    query_latencies: List[float] = dataclasses.field(default_factory=list)
    #: Failed operations: runner gaps/failures, dead jobs, failed queries.
    failed: int = 0
    #: Deterministic model-error figures (ladder_mae_mb, calib_err_pct).
    checks: Dict[str, float] = dataclasses.field(default_factory=dict)
    problems: List[str] = dataclasses.field(default_factory=list)
    #: What ``check`` needs; never serialised.
    detail: Any = None


def canonical(obj: Any) -> Any:
    """JSON-ready copy with every float as its ``repr`` string, so a
    digest pins results to the last bit."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [canonical(v) for v in obj]
    if isinstance(obj, (bool, str)) or obj is None:
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return repr(float(obj))
    raise TypeError(f"cannot digest {type(obj).__name__}")


def digest_update(h: "hashlib._Hash", obj: Any) -> None:
    h.update(json.dumps(canonical(obj), sort_keys=True,
                        separators=(",", ":")).encode())
    h.update(b"\n")


def derive_seed(seed: int, i: int) -> int:
    """Per-item simulator seed, a pure function of the benchmark seed."""
    tag = f"benchmarks.perf/{seed}/{i}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:4], "big")


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def runner_faults() -> int:
    """Gaps plus failures the point runners reported since the harness
    last reset the session telemetry."""
    from repro.core.parallel import session_telemetry

    tele = session_telemetry()
    return tele.gaps + tele.failures


class Workload:
    name = ""

    def __init__(self, seed: int, scale: str, workdir: Path, probes):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; pick one of {SCALES}")
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.probes = probes

    def prepare(self) -> None:
        raise NotImplementedError

    def run(self, span: Span) -> RoundOutput:
        raise NotImplementedError

    def check(self, out: RoundOutput) -> List[str]:
        return []


@contextlib.contextmanager
def _tiny_fig6_grid():
    """Shrink the grid the Fig. 6 driver reads from
    ``repro.experiments.common`` to one probe at k = 0..1 with short
    windows, so the tiny scale still runs the real driver."""
    from repro.experiments import common

    names = ("distribution_names", "probe_buffer_sizes_mb", "ops_per_load",
             "csthr_counts", "default_env")
    saved = {name: getattr(common, name) for name in names}
    default_env = saved["default_env"]
    common.distribution_names = lambda mode=None: ["Uni"]
    common.probe_buffer_sizes_mb = lambda mode=None: [30]
    common.ops_per_load = lambda mode=None: [1]
    common.csthr_counts = lambda mode=None: range(2)
    common.default_env = lambda mode=None, seed=0: dataclasses.replace(
        default_env(mode, seed=seed), warmup_accesses=3000, measure_accesses=2000)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(common, name, value)


class CapacityGrid(Workload):
    name = "capacity_grid"

    def prepare(self) -> None:
        from repro.experiments import run_fig6

        self.driver = run_fig6

    def run(self, span: Span) -> RoundOutput:
        grid = _tiny_fig6_grid() if self.scale == "tiny" else contextlib.nullcontext()
        with grid:
            t0 = time.perf_counter()
            with span("experiments.driver"):
                record = self.driver("smoke", self.seed)
            dt = time.perf_counter() - t0
        h = hashlib.sha256()
        digest_update(h, record.data)
        ladder = {int(k): v for k, v in record.data["capacity_ladder_mb"].items()}
        caps = [v for by_k in record.data["panels"].values()
                for series in by_k.values() for v in series["mean"]]
        problems = []
        if not caps or not _finite(caps) or min(caps) <= 0:
            problems.append("capacity_grid: non-positive or non-finite capacity")
        ks = sorted(ladder)
        if any(ladder[a] < ladder[b] for a, b in zip(ks, ks[1:])):
            problems.append(f"capacity_grid: ladder rises with k: {ladder}")
        mae = sum(abs(ladder[k] - PAPER_LADDER_MB[k]) for k in ks) / len(ks)
        return RoundOutput(
            digest=h.hexdigest(), job_latencies=[dt],
            failed=runner_faults(), checks={"ladder_mae_mb": mae},
            problems=problems,
        )


class PaperMix(Workload):
    name = "paper_mix"

    DRIVERS = ("calibration", "fig7_fig8", "fig9", "fig10", "fig11", "fig12",
               "detection_accuracy", "numa")
    TINY_DRIVERS = ("calibration", "fig7_fig8", "numa")

    def prepare(self) -> None:
        from repro import experiments

        names = self.DRIVERS if self.scale == "full" else self.TINY_DRIVERS
        self.mode = "paper" if self.scale == "full" else "smoke"
        self.drivers = [(name, getattr(experiments, f"run_{name}")) for name in names]

    def run(self, span: Span) -> RoundOutput:
        h = hashlib.sha256()
        latencies, records = [], {}
        for name, driver in self.drivers:
            t0 = time.perf_counter()
            with span("experiments.driver"):
                record = driver(self.mode, self.seed)
            latencies.append(time.perf_counter() - t0)
            records[name] = record.data
            digest_update(h, {"driver": name, "data": record.data})
        problems = [f"paper_mix: {name} produced no data"
                    for name, data in records.items() if not data]
        cal = records["calibration"]
        errors = [
            abs(cal["stream_peak_GBps"] / PAPER_STREAM_GBPS - 1.0),
            abs(cal["bwthr_unit_GBps"] / PAPER_BWTHR_GBPS - 1.0),
            abs(cal["threads_to_saturate"] / PAPER_SATURATE - 1.0),
        ]
        calib_err_pct = 100.0 * sum(errors) / len(errors)
        if not _finite(errors) or calib_err_pct > CALIB_ERR_LIMIT_PCT:
            problems.append(f"paper_mix: calibration error {calib_err_pct:.1f}% "
                            f"exceeds {CALIB_ERR_LIMIT_PCT}%")
        return RoundOutput(
            digest=h.hexdigest(), job_latencies=latencies,
            failed=runner_faults(), checks={"calib_err_pct": calib_err_pct},
            problems=problems,
        )


#: The nine points of one short sweep: cs k = 0..4, then bw k = 0..3.
SWEEP_POINTS = [("cs", k) for k in range(5)] + [("bw", k) for k in range(4)]


def point_payload(p) -> Dict[str, Any]:
    return {
        "kind": p.kind, "k": p.k, "makespan_ns": p.makespan_ns,
        "main_cores": p.main_cores, "l3_miss_rates": p.l3_miss_rates,
        "bandwidths_Bps": p.bandwidths_Bps,
        "time_per_access_ns": p.time_per_access_ns,
    }


class ShortPoints(Workload):
    name = "short_points"

    SWEEPS = {"full": 1000, "tiny": 20}
    WARMUP, MEASURE, QUANTUM = 512, 1024, 16
    BUFFER_BYTES = 8 * 1024 * 1024

    def prepare(self) -> None:
        from repro.config import xeon20mb
        from repro.core.parallel import PointRunner
        from repro.core.sweep import ActiveMeasurement
        from repro.workloads.distributions import UniformDist
        from repro.workloads.synthetic import ProbabilisticBenchmark

        socket = xeon20mb()
        runner = PointRunner(backend="serial", retries=0)
        factory = functools.partial(
            ProbabilisticBenchmark, UniformDist(), self.BUFFER_BYTES,
            quantum=self.QUANTUM)
        self.campaigns = [
            ActiveMeasurement(
                socket, factory, seed=derive_seed(self.seed, i),
                warmup_accesses=self.WARMUP, measure_accesses=self.MEASURE,
                runner=runner,
            )
            for i in range(self.SWEEPS[self.scale])
        ]

    def run(self, span: Span) -> RoundOutput:
        h = hashlib.sha256()
        latencies: List[float] = []
        problems: List[str] = []
        first = None
        for am in self.campaigns:
            t0 = time.perf_counter()
            points = [am.run_point(kind, k) for kind, k in SWEEP_POINTS]
            latencies.append(time.perf_counter() - t0)
            for p in points:
                core = p.main_cores[0]
                accesses = p.require_result().counters_of(core).accesses
                miss = p.l3_miss_rates[core]
                if accesses != self.MEASURE or not 0.0 <= miss <= 1.0:
                    problems.append(f"short_points: {p.kind}:k={p.k} measured "
                                    f"{accesses} accesses, miss rate {miss}")
            payload = [point_payload(p) for p in points]
            digest_update(h, payload)
            if first is None:
                first = canonical(payload)
        return RoundOutput(digest=h.hexdigest(), job_latencies=latencies,
                           problems=problems[:5], detail=first)

    def check(self, out: RoundOutput) -> List[str]:
        am = self.campaigns[0]
        again = [point_payload(am.run_point(kind, k)) for kind, k in SWEEP_POINTS]
        if canonical(again) != out.detail:
            return ["short_points: re-running the first sweep changed its output"]
        return []


class ServiceDrain(Workload):
    name = "service_drain"

    #: scale -> (new jobs, resubmitted jobs, queries, window accesses)
    SIZES = {"full": (320, 160, 300, 2000), "tiny": (16, 8, 30, 500)}
    WAVE = 16
    APPS = (("probe", {}), ("probe", {"dist": "zipf"}), ("stream", {}),
            ("hotcold", {}))
    KINDS = ("cs", "bw")
    KS = (0, 1, 2, 3)

    def prepare(self) -> None:
        import repro.cli
        from repro.service import JobSpec, ServiceClient
        from repro.service.broker import DONE

        self.cli_main = repro.cli.main
        self.done_state = DONE
        new, resubmit, self.n_queries, window = self.SIZES[self.scale]
        # A fresh root every round, and nothing deleted: README.md
        # (Stability) shows how deleting a round's files slows the file
        # creation of the rounds after it.
        self.root = Path(tempfile.mkdtemp(prefix="service-", dir=self.workdir))
        self.client = ServiceClient(self.root)
        self.specs = [
            JobSpec(
                app=self.APPS[i % 4][0], app_params=dict(self.APPS[i % 4][1]),
                preset="tiny", kind=self.KINDS[(i // 4) % 2], ks=self.KS,
                seed=derive_seed(self.seed, i),
                warmup_accesses=window, measure_accesses=window,
            )
            for i in range(new)
        ]
        #: Resubmission r repeats the spec of job 2r.
        self.resubmits = self.specs[::2][:resubmit]

    def _submit_waves(self, specs, ids: List[str], started: Dict[str, float]) -> None:
        for w in range(0, len(specs), self.WAVE):
            for spec in specs[w:w + self.WAVE]:
                t0 = time.perf_counter()
                job_id = self.client.submit(
                    spec, tenant="bench", trace_id=f"{len(ids):016x}")
                started[job_id] = t0
                ids.append(job_id)
            self.client.drain()

    def _queries(self, ids: List[str]):
        """(argv tail, expected row count, row predicate) per query,
        cycling job, app+kind and single-k filters."""
        per_app_kind: Dict[tuple, int] = {}
        for spec in self.specs + self.resubmits:
            key = (spec.app, spec.kind)
            per_app_kind[key] = per_app_kind.get(key, 0) + 1
        for i in range(self.n_queries):
            j = i // 3
            if i % 3 == 0:
                job = ids[(7 * j) % len(ids)]
                yield (["--job", job], len(self.KS),
                       lambda r, job=job: r["job_id"] == job)
            elif i % 3 == 1:
                app, kind = self.APPS[j % 4][0], self.KINDS[(j // 4) % 2]
                yield (["--app", app, "--kind", kind],
                       len(self.KS) * per_app_kind[(app, kind)],
                       lambda r, app=app, kind=kind: (r["app"], r["kind"]) == (app, kind))
            else:
                k = self.KS[j % len(self.KS)]
                yield (["--k-min", str(k), "--k-max", str(k)], len(ids),
                       lambda r, k=k: r["k"] == k)

    def run(self, span: Span) -> RoundOutput:
        ids: List[str] = []
        started: Dict[str, float] = {}
        self._submit_waves(self.specs, ids, started)
        self._submit_waves(self.resubmits, ids, started)
        completed = self.probes.completed
        job_latencies = [completed[j] - started[j] for j in ids if j in completed]

        h = hashlib.sha256()
        jobs = {job.id: job for job in self.client.broker.jobs()}
        failed = sum(1 for j in ids if jobs[j].state != self.done_state)
        artifacts = []
        for j in ids:
            job = jobs[j]
            done = job.state == self.done_state and job.result_path
            artifacts.append(json.loads(Path(job.result_path).read_text())
                             if done else None)
            digest_update(h, artifacts[-1])

        problems: List[str] = []
        query_latencies = []
        for argv, expected, match in self._queries(ids):
            buf = io.StringIO()
            self.probes.tick()
            t0 = time.perf_counter()
            with span("service.query"), contextlib.redirect_stdout(buf):
                rc = self.cli_main(["query", "--root", str(self.root), "--json", *argv])
            query_latencies.append(time.perf_counter() - t0)
            text = buf.getvalue()
            rows = json.loads(text) if rc == 0 else []
            if rc != 0 or len(rows) != expected or not all(map(match, rows)):
                failed += 1
                problems.append(f"service_drain: query {argv} returned rc={rc}, "
                                f"{len(rows)} rows (expected {expected})")
            h.update(text.encode())
        return RoundOutput(
            digest=h.hexdigest(), job_latencies=job_latencies,
            query_latencies=query_latencies, failed=failed,
            problems=problems[:5], detail=(ids, artifacts),
        )

    def check(self, out: RoundOutput) -> List[str]:
        ids, artifacts = out.detail
        n_new = len(self.specs)
        problems = [f"service_drain: job {ids[i]} has no full result"
                    for i, payload in enumerate(artifacts)
                    if payload is None or [p["k"] for p in payload] != list(self.KS)]
        problems += [
            f"service_drain: resubmitted job {ids[n_new + r]} differs from {ids[2 * r]}"
            for r, payload in enumerate(artifacts[n_new:])
            if payload != artifacts[2 * r]
        ]
        return problems[:5]


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (CapacityGrid, PaperMix, ShortPoints, ServiceDrain)
}


def percentile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-th percentile (0 < q < 100).

    A weighted mean of all order statistics with Beta weights centred
    on the percentile. Where the samples form clusters with a gap at
    the percentile, as capacity_grid's 144 point latencies do at the
    median, two samples swapping places across the gap moves it a
    little, where a single interpolated order statistic would jump
    across the gap.
    """
    if not values:
        return 0.0
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=float))
    n = len(xs)
    p = q / 100.0
    edges = betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.dot(np.diff(edges), xs))
