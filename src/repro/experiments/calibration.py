"""Sections II-A / III-A — bandwidth calibration, and Table I.

Reproduces the paper's bandwidth anchors on the simulated Xeon20MB:

- STREAM peak ~17 GB/s,
- one BWThr draws ~2.8 GB/s (Eq. 1 on its L3-miss counters),
- ~7 BWThrs saturate the socket,
- 2 BWThrs steal ~32% of peak (the orthogonality-safe range),

plus the capacity ladder of Section III-C3 (the Fig. 6 summary used by
every Section IV analysis).
"""

from __future__ import annotations

from ..analysis import ExperimentRecord
from ..core import (
    PAPER_XEON20MB_BW_LADDER_GBPS,
    PAPER_XEON20MB_LADDER_MB,
    calibrate_bandwidth,
    calibrate_capacity,
)
from ..units import MiB, as_GBps
from . import common


def run_calibration(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    env = common.default_env(mode, seed=seed)
    bw = calibrate_bandwidth(env.socket, saturation_ks=(1, 2, 4, 6, 7), seed=seed)
    cap = calibrate_capacity(
        env.socket,
        ks=range(6),
        warmup_accesses=env.warmup_accesses,
        measure_accesses=env.measure_accesses,
        seed=seed,
    )
    record = ExperimentRecord(
        experiment_id="calibration",
        title="Secs. II-A/III-A/III-C3: bandwidth + capacity calibration",
        params={"mode": env.mode, "scale": env.socket.scale},
        data={
            "table1": env.socket.describe(),
            "stream_peak_GBps": as_GBps(bw.stream_peak_Bps),
            "bwthr_unit_GBps": as_GBps(bw.bwthr_unit_Bps),
            "threads_to_saturate": bw.threads_to_saturate(),
            "two_bwthr_steal_fraction": bw.steal_fraction(2),
            "saturation_GBps": {
                str(k): as_GBps(v) for k, v in bw.saturation_Bps.items()
            },
            "capacity_ladder_mb": {
                str(k): v / MiB for k, v in cap.available_bytes.items()
            },
            "paper_capacity_ladder_mb": {
                str(k): v for k, v in PAPER_XEON20MB_LADDER_MB.items()
            },
            "paper_bw_ladder_GBps": {
                str(k): v for k, v in PAPER_XEON20MB_BW_LADDER_GBPS.items()
            },
        },
    )
    record.add_note(
        f"BWThr unit: {as_GBps(bw.bwthr_unit_Bps):.2f} GB/s (paper: 2.8)"
    )
    record.add_note(
        f"STREAM peak: {as_GBps(bw.stream_peak_Bps):.2f} GB/s (paper: 17)"
    )
    record.add_note(
        f"threads to saturate: {bw.threads_to_saturate()} (paper: 7)"
    )
    return record


def render(record: ExperimentRecord) -> str:
    from ..analysis import format_kv, format_table

    d = record.data
    parts = [
        d["table1"],
        format_kv(
            [
                ("STREAM peak (GB/s)", d["stream_peak_GBps"]),
                ("BWThr unit (GB/s)", d["bwthr_unit_GBps"]),
                ("threads to saturate", d["threads_to_saturate"]),
                ("2-BWThr steal", f"{d['two_bwthr_steal_fraction'] * 100:.0f}%"),
            ],
            title=record.title,
        ),
        format_table(
            ("CSThrs", "available MB (measured)", "available MB (paper)"),
            [
                (k, v, d["paper_capacity_ladder_mb"].get(k, "-"))
                for k, v in sorted(d["capacity_ladder_mb"].items())
            ],
            title="Capacity ladder",
            float_fmt="{:.1f}",
        ),
    ]
    return "\n\n".join(parts)
