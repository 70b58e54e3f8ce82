"""Fig. 5 — validation of the EHR model (Section III-C2).

For every Table II distribution and every buffer size 30-74 MB, run the
probabilistic benchmark with no interference, compare the measured L3
miss rate against Eq. 4's prediction for the nominal 20 MB L3, and plot
the absolute error averaged over the distributions (mean +/- sigma per
buffer size).

Paper result: error < 10% everywhere, < 5% once the miss rate exceeds
~50% (large buffers), with the small-buffer error explained by the
model's full-associativity assumption.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import ExperimentRecord, band, band_chart
from ..engine import SocketSimulator
from ..workloads import ProbabilisticBenchmark, table_ii_distributions
from . import common


def run_fig5(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    env = common.default_env(mode, seed=seed)
    sizes_mb = common.probe_buffer_sizes_mb(env.mode)
    dist_names = common.distribution_names(env.mode)
    dists = table_ii_distributions()
    l3_lines = env.socket.l3.n_lines

    per_size_errors: List[List[float]] = []
    per_size_detail: Dict[str, Dict[str, float]] = {}
    for size_mb in sizes_mb:
        errors = []
        detail: Dict[str, float] = {}
        for name in dist_names:
            probe = ProbabilisticBenchmark(
                dists[name], common.probe_buffer_bytes(size_mb), ops_per_access=1
            )
            sim = SocketSimulator(env.socket, seed=env.seed)
            core = sim.add_thread(probe, main=True)
            sim.warmup(accesses=env.warmup_accesses)
            result = sim.measure(accesses=env.measure_accesses)
            measured = result.l3_miss_rate(core)
            predicted = 1.0 - min(1.0, l3_lines * probe.ehr_model().s2)
            err = abs(measured - predicted)
            errors.append(err)
            detail[name] = err
        per_size_errors.append(errors)
        per_size_detail[str(size_mb)] = detail

    bands = [band(errs) for errs in per_size_errors]
    record = ExperimentRecord(
        experiment_id="fig5",
        title="Fig. 5: |measured - predicted| L3 miss rate vs buffer size",
        params={
            "mode": env.mode,
            "scale": env.socket.scale,
            "sizes_mb": sizes_mb,
            "distributions": dist_names,
        },
        data={
            "sizes_mb": sizes_mb,
            "mean_abs_error": [b.mean for b in bands],
            "std_abs_error": [b.std for b in bands],
            "per_distribution": per_size_detail,
        },
    )
    worst = max(b.mean + b.std for b in bands)
    record.add_note(f"max (mean+sigma) error: {worst:.3f} (paper: <= 0.15)")
    return record


def render(record: ExperimentRecord) -> str:
    data = record.data
    chart = band_chart(
        data["mean_abs_error"],
        data["std_abs_error"],
        x_labels=data["sizes_mb"],
        title=record.title,
        y_label="abs miss-rate error",
    )
    return chart
