"""Figs. 7 & 8 — orthogonality of the interference threads
(Section III-D).

Fig. 7: one BWThr measured while 0-5 CSThrs run. The paper reports its
bandwidth, L3 miss rate and loop time are flat — CSThr consumes no
bandwidth.

Fig. 8: one CSThr measured while 0-5 BWThrs run. The paper reports no
impact at 1 BWThr, small at 2, significant at 3+ — bounding the
capacity-neutral bandwidth-steal range at ~32% of the machine's peak.
"""

from __future__ import annotations

from ..analysis import ExperimentRecord, line_chart
from ..core import validate_orthogonality
from ..core.parallel import default_runner
from ..units import as_GBps
from . import common


def run_fig7_fig8(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    env = common.default_env(mode, seed=seed)
    report = validate_orthogonality(
        env.socket,
        ks=range(6),
        warmup=env.warmup_accesses,
        measure=env.measure_accesses,
        seed=env.seed,
        runner=default_runner(),
    )
    f7, f8 = report.bwthr_under_cs, report.csthr_under_bw
    record = ExperimentRecord(
        experiment_id="fig7_fig8",
        title="Figs. 7-8: cross-interference of BWThr and CSThr",
        params={"mode": env.mode, "scale": env.socket.scale},
        data={
            "fig7": {
                "csthrs": f7.ks,
                "bwthr_bandwidth_GBps": [as_GBps(b) for b in f7.bandwidth_Bps],
                "bwthr_time_per_access_ns": f7.time_per_access_ns,
                "bwthr_l3_miss_rate": f7.l3_miss_rate,
            },
            "fig8": {
                "bwthrs": f8.ks,
                "csthr_bandwidth_GBps": [as_GBps(b) for b in f8.bandwidth_Bps],
                "csthr_time_per_access_ns": f8.time_per_access_ns,
                "csthr_l3_miss_rate": f8.l3_miss_rate,
            },
            "bwthr_flat": report.bwthr_is_flat,
            "capacity_neutral_bwthrs": report.capacity_neutral_bwthrs,
            "csthr_solo_bandwidth_GBps": as_GBps(report.csthr_max_bandwidth_Bps),
        },
    )
    record.add_note(
        f"BWThr max slowdown under 5 CSThrs: {f7.max_slowdown():.3f} "
        "(paper: flat)"
    )
    record.add_note(
        f"CSThr capacity-neutral up to {report.capacity_neutral_bwthrs} "
        "BWThrs (paper: 2)"
    )
    return record


def render(record: ExperimentRecord) -> str:
    d7, d8 = record.data["fig7"], record.data["fig8"]
    parts = [
        line_chart(
            {
                "BW (GB/s)": d7["bwthr_bandwidth_GBps"],
                "t/acc (ns/10)": [t / 10 for t in d7["bwthr_time_per_access_ns"]],
            },
            x_labels=d7["csthrs"],
            title="Fig. 7: BWThr under k CSThrs (flat = orthogonal)",
        ),
        line_chart(
            {
                "t/acc (ns)": d8["csthr_time_per_access_ns"],
                "BW (GB/s)": d8["csthr_bandwidth_GBps"],
            },
            x_labels=d8["bwthrs"],
            title="Fig. 8: CSThr under k BWThrs (degrades at 3+)",
        ),
    ]
    return "\n\n".join(parts)
