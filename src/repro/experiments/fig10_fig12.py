"""Figs. 10 & 12 — per-process resource consumption by mapping.

These figures are *derived*: take the mapping sweeps of Fig. 9 (MCB) or
Fig. 11 (Lulesh), convert interference counts into resource
availability using the Section III calibrations, and bracket each
mapping's per-process use between the most-starved clean point and the
least-starved degraded point (``Available / #processes``).

Paper results: MCB uses 3.75-7 MB of L3 per process regardless of the
mapping while its bandwidth use grows sharply as processes spread out
(3.5-4.25 GB/s at p=4 up to 11.4-14.2 GB/s at p=1); Lulesh shows the
same bandwidth trend plus storage use that grows with spreading.
"""

from __future__ import annotations

from typing import Dict

from ..analysis import ExperimentRecord
from ..core import (
    BandwidthCalibration,
    CapacityCalibration,
    calibrate_bandwidth,
    calibrate_capacity,
)
from ..core.parallel import default_runner
from ..models import curve_from_measurements
from ..units import MiB, as_GBps
from . import appsweeps, common
from .fig9 import N_RANKS as MCB_RANKS, _builder as mcb_builder
from .fig11 import N_RANKS as LULESH_RANKS, _builder as lulesh_builder


def use_tables_from_sweeps(
    sweeps_by_p: Dict[int, appsweeps.KindSweep],
    cap_calib: CapacityCalibration,
    bw_calib: BandwidthCalibration,
    threshold: float = 0.04,
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Per-mapping {capacity, bandwidth} -> per-process (lower, upper)."""
    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for p, kinds in sweeps_by_p.items():
        entry: Dict[str, Dict[str, float]] = {}
        cs_times = kinds["cs"]
        curve = curve_from_measurements(
            "capacity",
            [cap_calib.available(k) for k in cs_times],
            list(cs_times.values()),
            n_interference=list(cs_times),
        )
        lo, hi = curve.use_bounds(threshold=threshold)
        entry["capacity_mb"] = {
            "lower": lo / p / MiB,
            "upper": hi / p / MiB,
        }
        bw_times = kinds["bw"]
        if bw_times:
            curve = curve_from_measurements(
                "bandwidth",
                [bw_calib.available(k) for k in bw_times],
                list(bw_times.values()),
                n_interference=list(bw_times),
            )
            lo, hi = curve.use_bounds(threshold=threshold)
            entry["bandwidth_GBps"] = {
                "lower": as_GBps(lo / p),
                "upper": as_GBps(hi / p),
            }
        out[str(p)] = entry
    return out


def _run(app_id: str, mode: str | None, seed: int) -> ExperimentRecord:
    m = common.resolve_mode(mode)
    env = common.default_env(m, seed=seed)
    cluster = common.default_cluster()
    cs_ks = list(common.csthr_counts(m))
    bw_ks = list(common.bwthr_counts(m))

    cap_calib = calibrate_capacity(
        env.socket,
        ks=cs_ks,
        warmup_accesses=env.warmup_accesses,
        measure_accesses=env.measure_accesses,
        seed=seed,
    )
    bw_calib = calibrate_bandwidth(env.socket, saturation_ks=(), seed=seed)

    runner = default_runner()
    if app_id == "fig10":
        sweeps = appsweeps.mapping_sweeps(
            cluster, MCB_RANKS, common.mcb_mappings(m), mcb_builder,
            input_value=20_000, cs_ks=cs_ks, bw_ks=bw_ks, seed=seed,
            runner=runner,
        )
        title = "Fig. 10: MCB per-process resource use by mapping (20k particles)"
        edges = {"20000": sweeps}
    else:
        sweeps22 = appsweeps.mapping_sweeps(
            cluster, LULESH_RANKS, common.lulesh_mappings(m), lulesh_builder,
            input_value=22, cs_ks=cs_ks, bw_ks=bw_ks, seed=seed,
            runner=runner,
        )
        sweeps36 = appsweeps.mapping_sweeps(
            cluster, LULESH_RANKS, common.lulesh_mappings(m), lulesh_builder,
            input_value=36, cs_ks=cs_ks, bw_ks=bw_ks, seed=seed,
            runner=runner,
        )
        title = "Fig. 12: Lulesh per-process resource use by mapping (22^3, 36^3)"
        edges = {"22": sweeps22, "36": sweeps36}

    tables = {
        label: use_tables_from_sweeps(sweeps, cap_calib, bw_calib)
        for label, sweeps in edges.items()
    }
    record = ExperimentRecord(
        experiment_id=app_id,
        title=title,
        params={"mode": m, "cs_ks": cs_ks, "bw_ks": bw_ks},
        data={
            "use_tables": tables,
            "capacity_ladder_mb": {
                str(k): v / MiB for k, v in cap_calib.available_bytes.items()
            },
            "bandwidth_ladder_GBps": {
                str(k): as_GBps(bw_calib.available(k)) for k in bw_ks
            },
        },
    )
    for label, table in tables.items():
        for p, entry in sorted(table.items(), key=lambda kv: int(kv[0])):
            cap = entry["capacity_mb"]
            note = f"{label} / p={p}: capacity {cap['lower']:.1f}-{cap['upper']:.1f} MB"
            if "bandwidth_GBps" in entry:
                bw = entry["bandwidth_GBps"]
                note += f", bandwidth {bw['lower']:.1f}-{bw['upper']:.1f} GB/s"
            record.add_note(note)
    return record


def run_fig10(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    return _run("fig10", mode, seed)


def run_fig12(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    return _run("fig12", mode, seed)


def render(record: ExperimentRecord) -> str:
    from ..analysis import format_table

    rows = []
    for label, table in record.data["use_tables"].items():
        for p, entry in sorted(table.items(), key=lambda kv: int(kv[0])):
            cap = entry["capacity_mb"]
            bw = entry.get("bandwidth_GBps", {"lower": float("nan"), "upper": float("nan")})
            rows.append(
                (label, p, cap["lower"], cap["upper"], bw["lower"], bw["upper"])
            )
    return format_table(
        ("input", "p/socket", "cap>= MB", "cap<= MB", "bw>= GB/s", "bw<= GB/s"),
        rows,
        title=record.title,
        float_fmt="{:.2f}",
    )
