"""Co-location study (extension: the paper's scheduling use case).

Profiles a zoo of workloads once with Active Measurement, predicts the
slowdown of every pairing by resource budgeting, then *verifies* each
prediction by actually simulating the co-run — the ground-truth check
Bubble-Up-style systems validate on production clusters.

Reported per pair: predicted worst-tenant slowdown, simulated
worst-tenant slowdown, and the absolute error.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict

from ..analysis import ExperimentRecord
from ..core import calibrate_bandwidth, calibrate_capacity
from ..core.colocation import CoLocationAdvisor, profile_workload
from ..core.parallel import default_runner
from ..engine import SocketSimulator
from ..units import MiB
from ..workloads import CSThr, ProbabilisticBenchmark, UniformDist
from ..workloads.hotcold import HotColdProbe
from . import common


def _zoo(mode: str) -> Dict[str, Callable]:
    """Candidate tenants with distinct resource fingerprints."""
    zoo = {
        # Cache-resident kernel: heavy capacity, negligible bandwidth.
        "resident-8MB": lambda: HotColdProbe(hot_bytes=8 * MiB, hot_fraction=1.0),
        # Streaming/capacity mix.
        "mixed-4MB": lambda: HotColdProbe(hot_bytes=4 * MiB, hot_fraction=0.85),
        # Capacity-hungry uniform scan (working set >> L3).
        "scan-40MB": lambda: ProbabilisticBenchmark(UniformDist(), 40 * MiB),
    }
    if mode != common.SMOKE:
        zoo["resident-12MB"] = lambda: HotColdProbe(hot_bytes=12 * MiB, hot_fraction=1.0)
        zoo["small-2MB"] = lambda: CSThr(buffer_bytes=2 * MiB, overhead_ops=10, name="small")
    return zoo


def _simulate_pair(env, fa, fb, seed):
    """Actual co-run: both tenants measured simultaneously; returns
    (slowdown_a, slowdown_b) vs solo runs."""

    def solo(f):
        sim = SocketSimulator(env.socket, seed=seed)
        core = sim.add_thread(f(), main=True)
        sim.warmup(accesses=env.warmup_accesses)
        r = sim.measure(accesses=env.measure_accesses)
        c = r.counters_of(core)
        return c.elapsed_ns / c.accesses

    base_a, base_b = solo(fa), solo(fb)
    sim = SocketSimulator(env.socket, seed=seed)
    ca = sim.add_thread(fa(), main=True)
    cb = sim.add_thread(fb(), main=True)
    sim.warmup(accesses=env.warmup_accesses)
    r = sim.measure(accesses=env.measure_accesses)
    ta = r.counters_of(ca).elapsed_ns / r.counters_of(ca).accesses
    tb = r.counters_of(cb).elapsed_ns / r.counters_of(cb).accesses
    return ta / base_a, tb / base_b


def run_colocation(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    env = common.default_env(mode, seed=seed)
    zoo = _zoo(env.mode)
    cs_ks = [0, 2, 4, 5]
    bw_ks = [0, 1, 2]

    cap_calib = calibrate_capacity(
        env.socket, ks=cs_ks,
        warmup_accesses=env.warmup_accesses, measure_accesses=env.measure_accesses,
        seed=seed,
    )
    bw_calib = calibrate_bandwidth(env.socket, saturation_ks=(), seed=seed)

    runner = default_runner()
    profiles = {}
    for name, factory in zoo.items():
        profiles[name] = profile_workload(
            name, env.socket, factory, cap_calib, bw_calib,
            cs_ks=cs_ks, bw_ks=bw_ks,
            warmup_accesses=env.warmup_accesses,
            measure_accesses=env.measure_accesses,
            seed=seed,
            runner=runner,
        )

    advisor = CoLocationAdvisor(env.socket, qos_slowdown=1.10)
    pair_rows = {}
    errors = []
    for a, b in combinations(zoo, 2):
        decision = advisor.predict_pair(profiles[a], profiles[b])
        sim_a, sim_b = _simulate_pair(env, zoo[a], zoo[b], seed)
        simulated_worst = max(sim_a, sim_b)
        err = abs(decision.worst - simulated_worst)
        errors.append(err)
        pair_rows[f"{a}+{b}"] = {
            "predicted_worst": decision.worst,
            "simulated_worst": simulated_worst,
            "abs_error": err,
            "qos_ok_predicted": decision.worst <= advisor.qos,
            "qos_ok_simulated": simulated_worst <= advisor.qos * 1.02,
        }

    plan, solo = advisor.plan(list(profiles.values()))
    agreement = sum(
        1 for r in pair_rows.values()
        if r["qos_ok_predicted"] == r["qos_ok_simulated"]
    )
    record = ExperimentRecord(
        experiment_id="colocation",
        title="Extension: co-location advice from 2-D profiles, verified by co-runs",
        params={"mode": env.mode, "qos": advisor.qos, "tenants": list(zoo)},
        data={
            "profiles": {n: p.describe() for n, p in profiles.items()},
            "pairs": pair_rows,
            "plan": [
                {"tenants": list(d.tenants), "predicted_worst": d.worst}
                for d in plan
            ],
            "solo": solo,
            "mean_abs_error": sum(errors) / len(errors),
            "qos_agreement": agreement / len(pair_rows),
        },
    )
    record.add_note(
        f"mean |predicted - simulated| worst-tenant slowdown: "
        f"{record.data['mean_abs_error']:.3f}"
    )
    record.add_note(
        f"QoS verdict agreement: {agreement}/{len(pair_rows)} pairings"
    )
    return record


def render(record: ExperimentRecord) -> str:
    from ..analysis import format_table

    rows = [
        (pair, r["predicted_worst"], r["simulated_worst"], r["abs_error"],
         "ok" if r["qos_ok_predicted"] else "deny")
        for pair, r in record.data["pairs"].items()
    ]
    table = format_table(
        ("pairing", "predicted", "simulated", "error", "advice"),
        rows,
        title=record.title,
        float_fmt="{:.3f}",
    )
    lines = [table, "", "profiles:"]
    for desc in record.data["profiles"].values():
        lines.append(f"  {desc}")
    return "\n".join(lines)
