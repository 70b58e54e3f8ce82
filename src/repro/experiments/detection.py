"""Detection-accuracy study (extension beyond the paper).

The paper validates its capacity *interference* (Fig. 6) but can never
check the end-to-end measurement against ground truth: real
applications' true working sets are unknown. The simulator removes that
limit: :class:`~repro.workloads.hotcold.HotColdProbe` has a working set
that is known *by construction*, so running the full Active Measurement
pipeline against a ladder of hot-set sizes yields the method's actual
detection error — the missing instrument-calibration experiment.

For each hot size the experiment reports the measured use bracket
``[lower, upper]`` (Section IV protocol) and whether the ground truth
falls inside it.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import ExperimentRecord
from ..core import ActiveMeasurement, calibrate_capacity, capacity_curve, resource_use
from ..units import MiB
from ..workloads.hotcold import HotColdProbe
from . import common


def run_detection_accuracy(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    env = common.default_env(mode, seed=seed)
    hot_sizes_mb = common.pick(env.mode, [4, 8, 12], [2, 4, 6, 8, 12, 16], [2, 4, 6, 8, 10, 12, 14, 16])
    ks = list(common.csthr_counts(env.mode))
    calib = calibrate_capacity(
        env.socket,
        ks=ks,
        warmup_accesses=env.warmup_accesses,
        measure_accesses=env.measure_accesses,
        seed=seed,
    )

    results: Dict[str, Dict[str, float]] = {}
    hits: List[bool] = []
    for size_mb in hot_sizes_mb:
        am = ActiveMeasurement(
            env.socket,
            lambda _s=size_mb: HotColdProbe(hot_bytes=_s * MiB),
            warmup_accesses=env.warmup_accesses,
            measure_accesses=env.measure_accesses,
            seed=seed,
        )
        sweep = am.capacity_sweep(ks=ks)
        curve = capacity_curve(sweep, calib)
        est = resource_use(curve, n_processes=1, threshold=0.04)
        lower_mb = est.lower / MiB
        upper_mb = est.upper / MiB
        # The bracket bounds *availability* at the degradation onset; the
        # truth is contained if the hot set sits between them (with the
        # ladder's own rung spacing as tolerance).
        contained = lower_mb * 0.7 <= size_mb <= upper_mb * 1.3
        hits.append(bool(contained))
        results[str(size_mb)] = {
            "measured_lower_mb": lower_mb,
            "measured_upper_mb": upper_mb,
            "contained": contained,
        }

    record = ExperimentRecord(
        experiment_id="detection_accuracy",
        title="Extension: Active Measurement vs known ground-truth working sets",
        params={"mode": env.mode, "hot_sizes_mb": hot_sizes_mb, "csthr_counts": ks},
        data={"results": results, "containment_rate": sum(hits) / len(hits)},
    )
    for size_mb in hot_sizes_mb:
        r = results[str(size_mb)]
        record.add_note(
            f"true {size_mb} MB -> measured "
            f"[{r['measured_lower_mb']:.1f}, {r['measured_upper_mb']:.1f}] MB "
            f"({'OK' if r['contained'] else 'MISS'})"
        )
    record.add_note(f"containment rate: {sum(hits)}/{len(hits)}")
    return record


def render(record: ExperimentRecord) -> str:
    from ..analysis import format_table

    rows = []
    for size_mb, r in record.data["results"].items():
        rows.append(
            (
                size_mb,
                r["measured_lower_mb"],
                r["measured_upper_mb"],
                "yes" if r["contained"] else "NO",
            )
        )
    return format_table(
        ("true hot set MB", "measured >= MB", "measured <= MB", "contained"),
        rows,
        title=record.title,
        float_fmt="{:.1f}",
    )
