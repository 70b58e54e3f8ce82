"""Ablation studies for the design decisions called out in DESIGN.md.

1. **Prefetch degree** (decision 4): BWThr's unit bandwidth and the
   STREAM peak as the prefetcher is swept from off to degree 8 — the
   paper's claim that BWThr needs the prefetcher to "use up more
   bandwidth" is only meaningful if disabling it collapses the draw.
2. **Replacement policy** (decision 1): the probe's miss rate under
   LRU / FIFO / random / PLRU on the reference cache — quantifies how
   much the Eq. 4 inversion depends on LRU specifically.
3. **Noise model** (decision 6): MCB degradation with the noise model
   on vs off — interference-induced jitter amplification at scale.
4. **Machine scale** (decision 5): the Section III-C3 capacity ladder
   at 1/16 vs 1/32 scale — the scale-covariance claim.
5. **Eklov comparison** (Section V): how much L3 capacity k BWThrs
   occupy, measured by owner attribution — the margin that makes <=2
   BWThrs "capacity neutral" (our answer to the Bandwidth Bandit's
   unquantified capacity impact).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

import numpy as np

from ..analysis import ExperimentRecord
from ..apps import MCBProxy
from ..cluster import NoiseModel, ProcessMapping, run_job
from ..config import PrefetchConfig, xeon20mb, xeon20mb_cluster
from ..core import measure_bwthr_unit, measure_effective_capacity
from ..engine import SocketSimulator
from ..mem import SetAssociativeCache
from ..mem import sampled_miss_rate
from ..models import EHRModel
from ..trace import ReuseProfile, record_trace
from ..units import MiB, as_GBps
from ..workloads import BWThr, CSThr, ProbabilisticBenchmark, table_ii_distributions
from . import common


def run_prefetch_ablation(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    m = common.resolve_mode(mode)
    degrees = [0, 2, 4, 6, 8]
    unit_GBps: Dict[str, float] = {}
    for d in degrees:
        socket = replace(
            xeon20mb(),
            prefetch=PrefetchConfig(enabled=d > 0, degree=max(d, 1)),
        )
        unit_GBps[str(d)] = as_GBps(measure_bwthr_unit(socket, seed=seed))
    record = ExperimentRecord(
        experiment_id="ablation_prefetch",
        title="Ablation: BWThr unit bandwidth vs prefetch degree",
        params={"mode": m, "degrees": degrees},
        data={"bwthr_unit_GBps": unit_GBps},
    )
    record.add_note(
        f"degree 0 -> {unit_GBps['0']:.2f} GB/s, degree 6 -> "
        f"{unit_GBps['6']:.2f} GB/s (paper's design point: the prefetcher "
        "is what lets BWThr reach 2.8 GB/s)"
    )
    return record


def run_replacement_ablation(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    """Probe miss rate per replacement policy on the reference cache."""
    m = common.resolve_mode(mode)
    socket = xeon20mb()
    geometry = socket.l3
    n_lines = geometry.n_lines
    rng = np.random.default_rng(seed)
    # Uniform random trace over a buffer 2.5x the cache (the Fig. 5 Uni
    # regime, where Eq. 4 predicts a 60% miss rate).
    buffer_lines = int(n_lines * 2.5)
    n_accesses = common.pick(m, 60_000, 150_000, 400_000)
    warm = rng.integers(0, buffer_lines, size=2 * geometry.n_lines)
    trace = rng.integers(0, buffer_lines, size=n_accesses)
    miss_rates: Dict[str, float] = {}
    for policy in ("lru", "fifo", "random", "plru"):
        cache = SetAssociativeCache(geometry, policy=policy)
        for a in warm.tolist():
            cache.access(a)
        cache.stats.reset()
        for a in trace.tolist():
            cache.access(a)
        miss_rates[policy] = cache.stats.miss_rate
    record = ExperimentRecord(
        experiment_id="ablation_replacement",
        title="Ablation: probe miss rate by replacement policy",
        params={"mode": m, "buffer_lines": buffer_lines, "accesses": n_accesses},
        data={"miss_rate": miss_rates, "eq4_prediction": 1.0 - n_lines / buffer_lines},
    )
    spread = max(miss_rates.values()) - min(miss_rates.values())
    record.add_note(
        f"policy spread: {spread:.4f} miss-rate units — Eq. 4's inversion "
        "is replacement-insensitive in the uniform regime"
    )
    return record


def run_scale_ablation(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    """Capacity ladder at 1/16 vs 1/32 machine scale (scale covariance)."""
    m = common.resolve_mode(mode)
    ks = [0, 1, 3, 5]
    ladders: Dict[str, Dict[str, float]] = {}
    for scale in (16, 32):
        socket = xeon20mb(scale=scale)
        ladder = {}
        for k in ks:
            cap = measure_effective_capacity(
                socket,
                k,
                probe_buffer_bytes=50 * MiB,
                warmup_accesses=common.pick(m, 25_000, 50_000, 100_000),
                measure_accesses=common.pick(m, 15_000, 30_000, 60_000),
                seed=seed,
            )
            ladder[str(k)] = cap / MiB
        ladders[f"1/{scale}"] = ladder
    record = ExperimentRecord(
        experiment_id="ablation_scale",
        title="Ablation: capacity ladder vs machine scale factor",
        params={"mode": m, "ks": ks},
        data={"ladders_mb": ladders},
    )
    worst = max(
        abs(ladders["1/16"][str(k)] - ladders["1/32"][str(k)]) for k in ks
    )
    record.add_note(
        f"max |1/16 - 1/32| ladder difference: {worst:.1f} MB "
        "(scale covariance holds when small)"
    )
    return record


def run_bwthr_capacity_ablation(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    """How much L3 do k BWThrs actually occupy? (Eklov-comparison margin.)

    Runs k BWThrs against one CSThr on an owner-tracked socket and reads
    the L3 occupancy attribution — the quantity Eklov et al.'s Bandwidth
    Bandit leaves unmeasured (Section V).
    """
    m = common.resolve_mode(mode)
    socket = xeon20mb()
    occupancy: Dict[str, Dict[str, float]] = {}
    l3_lines = socket.l3.n_lines
    for k in (1, 2, 3, 5):
        if k + 1 > socket.n_cores:
            continue
        sim = SocketSimulator(socket, seed=seed, track_owner=True)
        cs_core = sim.add_thread(CSThr(), main=True)
        bw_cores = [sim.add_thread(BWThr(name=f"BWThr[{i}]")) for i in range(k)]
        sim.warmup(accesses=common.pick(m, 20_000, 40_000, 80_000))
        sim.measure(accesses=common.pick(m, 10_000, 20_000, 40_000))
        occ = sim.l3_occupancy_by_owner()
        bw_lines = sum(occ.get(c, 0) for c in bw_cores)
        occupancy[str(k)] = {
            "bwthr_l3_fraction": bw_lines / l3_lines,
            "csthr_l3_fraction": occ.get(cs_core, 0) / l3_lines,
        }
    record = ExperimentRecord(
        experiment_id="ablation_bwthr_capacity",
        title="Ablation: L3 occupancy of k BWThrs (Eklov-comparison margin)",
        params={"mode": m},
        data={"occupancy": occupancy},
    )
    for k, o in occupancy.items():
        record.add_note(
            f"{k} BWThrs hold {o['bwthr_l3_fraction'] * 100:.0f}% of L3 "
            f"(CSThr holds {o['csthr_l3_fraction'] * 100:.0f}%)"
        )
    return record


def run_noise_ablation(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    """Noise amplification vs job scale (DESIGN decision 6).

    Interference slows individual ranks *stochastically*; a
    bulk-synchronous job pays the max over all ranks, so the same
    per-rank jitter costs more on larger jobs (paper Section IV, refs
    [18][11]). This ablation runs the same per-socket MCB layout at
    growing rank counts with the noise model on and off: without the
    model the job time is scale-free; with it, the amplification factor
    grows like ``exp(sigma * sqrt(2 ln N))``.
    """
    m = common.resolve_mode(mode)
    cluster = xeon20mb_cluster(n_nodes=64)
    rank_counts = [8, 64, 512]
    inflation: Dict[str, Dict[str, float]] = {"on": {}, "off": {}}
    amp_factors: Dict[str, float] = {}
    for n_ranks in rank_counts:
        mapping = ProcessMapping(cluster, n_ranks=n_ranks, procs_per_socket=4)
        for label, noise in (("off", NoiseModel(sigma=0.0)), ("on", NoiseModel(sigma=0.02))):
            res = run_job(
                cluster,
                mapping,
                lambda rank, env, _m=mapping, _n=n_ranks: MCBProxy(
                    n_particles=max(_n * 850, 20_000), n_ranks=_n, rank=rank,
                    mapping=_m, comm_env=env, n_iterations=2,
                ),
                interference_kind="cs",
                n_interference=3,
                noise=noise,
                seed=seed,
            )
            inflation[label][str(n_ranks)] = res.time_ns
            if label == "on":
                amp_factors[str(n_ranks)] = res.amplification
    ratios = {
        n: inflation["on"][n] / inflation["off"][n] for n in map(str, rank_counts)
    }
    record = ExperimentRecord(
        experiment_id="ablation_noise",
        title="Ablation: noise amplification vs job scale (MCB, p=4, 3 CSThrs)",
        params={"mode": m, "rank_counts": rank_counts, "sigma": 0.02},
        data={"noise_inflation": ratios, "amplification": amp_factors},
    )
    r = [ratios[str(n)] for n in rank_counts]
    record.add_note(
        "noise inflation grows with scale: "
        + ", ".join(f"N={n}: x{v:.3f}" for n, v in zip(rank_counts, r))
    )
    return record


def run_model_vs_trace_ablation(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    """Eq. 4 against ground truth (extension beyond the paper).

    The Mattson stack profile of a recorded probe trace gives the exact
    fully-associative miss-rate-vs-capacity curve; Eq. 4 predicts it
    from the distribution alone. Their agreement is an *offline*
    validation of the paper's model that needs no interference runs.
    """
    m = common.resolve_mode(mode)
    socket = xeon20mb()
    n_accesses = common.pick(m, 50_000, 100_000, 200_000)
    buffer_mb = 4  # small enough for many touches per line
    dists = table_ii_distributions()
    names = common.pick(m, ["Uni", "Norm_6", "Exp_6"], list(dists), list(dists))
    fracs = [0.25, 0.5, 0.75]
    errors: Dict[str, Dict[str, float]] = {}
    for name in names:
        probe = ProbabilisticBenchmark(dists[name], buffer_mb * MiB)
        trace = record_trace(probe, n_accesses, socket, seed=seed)
        profile = ReuseProfile.from_trace(trace.lines)
        model = EHRModel(probe.line_pmf(), line_bytes=socket.line_bytes)
        per_frac = {}
        n_lines = probe.buffer.n_lines
        for frac in fracs:
            cap_lines = max(1, int(n_lines * frac))
            truth = profile.miss_rate_at(cap_lines, include_cold=False)
            pred = model.miss_rate(cap_lines * socket.line_bytes)
            per_frac[str(frac)] = abs(truth - pred)
        errors[name] = per_frac
    record = ExperimentRecord(
        experiment_id="ablation_model_vs_trace",
        title="Ablation: Eq. 4 vs Mattson stack-distance ground truth",
        params={"mode": m, "distributions": names, "capacity_fractions": fracs},
        data={"abs_error": errors},
    )
    worst = max(v for d in errors.values() for v in d.values())
    record.add_note(
        f"max |Eq.4 - stack truth| miss-rate error: {worst:.3f} across "
        f"{len(names)} distributions x {len(fracs)} capacities"
    )
    return record


def run_sampling_ablation(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    """Set-sampling accuracy (fidelity tier 2, DESIGN.md).

    Miss-ratio estimates from 1/2^k of the L3's sets against the full
    simulation, across probe distributions: how much accuracy set
    sampling would cost. No other experiment uses it.
    """
    m = common.resolve_mode(mode)
    socket = xeon20mb()
    n_accesses = common.pick(m, 100_000, 200_000, 400_000)
    shifts = [0, 1, 3, 5]
    dists = table_ii_distributions()
    names = common.pick(m, ["Uni", "Norm_6"], ["Uni", "Norm_6", "Exp_6", "Tri_2"],
                        list(dists))
    from ..trace import record_trace

    errors: Dict[str, Dict[str, float]] = {}
    for name in names:
        probe = ProbabilisticBenchmark(dists[name], 50 * MiB)
        trace = record_trace(probe, n_accesses, socket, seed=seed).lines
        full = sampled_miss_rate(socket, trace, sample_shift=0)
        errors[name] = {
            str(shift): abs(sampled_miss_rate(socket, trace, sample_shift=shift) - full)
            for shift in shifts[1:]
        }
    record = ExperimentRecord(
        experiment_id="ablation_sampling",
        title="Ablation: set-sampled vs full miss-ratio estimation",
        params={"mode": m, "shifts": shifts, "distributions": names},
        data={"abs_error_vs_full": errors},
    )
    worst = max(v for d in errors.values() for v in d.values())
    record.add_note(
        f"max |sampled - full| miss-rate error: {worst:.4f} "
        "(1/2 .. 1/32 of sets)"
    )
    return record


def run_quantum_ablation(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    """Interleave-quantum sensitivity (DESIGN decision 2).

    The scheduler interleaves threads at chunk granularity; the
    shared-state models (LRU L3, rate-matching arbiter) are built to be
    insensitive to the residual intra-chunk clock skew. This ablation
    re-measures a Section III-C3 capacity point with the probe and the
    CSThrs emitting chunks of 64/256/1024 accesses: the inverted
    effective capacity must be stable.
    """
    m = common.resolve_mode(mode)
    socket = xeon20mb()
    k = 3
    warm = common.pick(m, 30_000, 60_000, 120_000)
    meas = common.pick(m, 20_000, 40_000, 80_000)
    capacities: Dict[str, float] = {}
    for quantum in (64, 256, 1024):
        from ..engine import SocketSimulator
        from ..workloads import UniformDist

        probe = ProbabilisticBenchmark(
            UniformDist(), 50 * MiB, quantum=quantum
        )
        sim = SocketSimulator(socket, seed=seed)
        core = sim.add_thread(probe, main=True)
        for i in range(k):
            sim.add_thread(CSThr(quantum=quantum, name=f"CSThr[{i}]"))
        sim.warmup(accesses=warm)
        result = sim.measure(accesses=meas)
        model = EHRModel(probe.line_pmf(), line_bytes=socket.line_bytes)
        cap = model.effective_capacity_bytes(result.l3_miss_rate(core))
        capacities[str(quantum)] = socket.unscaled_bytes(int(cap)) / MiB
    record = ExperimentRecord(
        experiment_id="ablation_quantum",
        title="Ablation: effective capacity vs scheduler interleave quantum",
        params={"mode": m, "csthrs": k, "quanta": [64, 256, 1024]},
        data={"effective_capacity_mb": capacities},
    )
    spread = max(capacities.values()) - min(capacities.values())
    record.add_note(
        f"capacity at k={k} across quanta 64/256/1024: "
        + ", ".join(f"{q}: {v:.1f} MB" for q, v in capacities.items())
        + f" (spread {spread:.1f} MB)"
    )
    return record


def run_writeback_ablation(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    """Write-back throttling on/off (DESIGN.md simplification).

    By default dirty-line writebacks are counted but do not occupy the
    modelled link (the paper's Eq. 1 counts fills only). Turning
    ``SocketConfig.throttle_writebacks`` on makes them compete with
    fills; this ablation measures how much the STREAM calibration and a
    write-heavy victim's timing shift — i.e. how much the default
    simplification could matter.
    """
    m = common.resolve_mode(mode)
    from ..core import measure_stream_peak

    results: Dict[str, Dict[str, float]] = {}
    for label, throttle in (("off", False), ("on", True)):
        socket = replace(xeon20mb(), throttle_writebacks=throttle)
        peak = measure_stream_peak(socket, seed=seed)
        sim = SocketSimulator(socket, seed=seed)
        core = sim.add_thread(CSThr(), main=True)
        for i in range(5):
            sim.add_thread(BWThr(name=f"BW{i}"))
        sim.warmup(accesses=common.pick(m, 20_000, 40_000, 80_000))
        r = sim.measure(accesses=common.pick(m, 15_000, 30_000, 60_000))
        c = r.counters_of(core)
        results[label] = {
            "stream_peak_GBps": as_GBps(peak),
            "csthr_under_5bw_ns_per_access": c.elapsed_ns / c.accesses,
        }
    record = ExperimentRecord(
        experiment_id="ablation_writeback",
        title="Ablation: write-back link throttling on/off",
        params={"mode": m},
        data={"results": results},
    )
    off, on = results["off"], results["on"]
    record.add_note(
        f"STREAM peak: {off['stream_peak_GBps']:.2f} -> "
        f"{on['stream_peak_GBps']:.2f} GB/s with writeback traffic "
        "throttled (STREAM is 1/3 writes)"
    )
    record.add_note(
        f"CSThr under 5 BWThrs: {off['csthr_under_5bw_ns_per_access']:.1f} -> "
        f"{on['csthr_under_5bw_ns_per_access']:.1f} ns/access"
    )
    return record
