"""Fig. 6 — effective cache capacity under CSThr interference
(Section III-C3).

The 18-panel grid: rows are compute intensity (1/10/100 integer ops per
load), columns are 0-5 CSThrs. Each panel shows, per buffer size, the
effective capacity recovered by inverting Eq. 4 from the measured miss
rate, averaged (+/- sigma) over the Table II distributions.

Paper result: the capacity ladder 20 / 15 / 12 / 7 / 5 / 2.5 MB,
consistent across distributions and buffer sizes, with dispersion
growing at high interference and high access frequency.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import ExperimentRecord, band
from ..core.parallel import PointTask, cache_key, default_runner
from ..engine import SocketSimulator
from ..models import EHRModel
from ..units import MiB
from ..workloads import CSThr, ProbabilisticBenchmark, table_ii_distributions
from . import common


def _panel_point(socket, dist_name, buffer_bytes, ops, k, seed,
                 warmup, measure) -> float:
    """One Fig. 6 panel point: effective capacity (unscaled MB) of a
    probe with ``dist_name``/``buffer_bytes``/``ops`` under k CSThrs.

    Module-level so the process backend can pickle it.
    """
    probe = ProbabilisticBenchmark(
        table_ii_distributions()[dist_name], buffer_bytes, ops_per_access=ops,
    )
    sim = SocketSimulator(socket, seed=seed)
    core = sim.add_thread(probe, main=True)
    for i in range(k):
        sim.add_thread(CSThr(name=f"CSThr[{i}]"))
    sim.warmup(accesses=warmup)
    result = sim.measure(accesses=measure)
    model = EHRModel(probe.line_pmf(), line_bytes=socket.line_bytes)
    cap_sim = model.effective_capacity_bytes(result.l3_miss_rate(core))
    return socket.unscaled_bytes(int(cap_sim)) / MiB


def run_fig6(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    env = common.default_env(mode, seed=seed)
    sizes_mb = common.probe_buffer_sizes_mb(env.mode)
    ops_levels = common.ops_per_load(env.mode)
    dist_names = common.distribution_names(env.mode)
    ks = list(common.csthr_counts(env.mode))

    # Every grid point is an independent simulator run; batch them all
    # through the point runner (parallelism + result cache).
    grid = [
        (ops, k, size_mb, name)
        for ops in ops_levels
        for k in ks
        for size_mb in sizes_mb
        for name in dist_names
    ]
    tasks = [
        PointTask(
            fn=_panel_point,
            args=(env.socket, name, common.probe_buffer_bytes(size_mb),
                  ops, k, env.seed, env.warmup_accesses,
                  env.measure_accesses),
            key=cache_key(
                scope="fig6-panel", socket=env.socket, dist=name,
                buffer_bytes=common.probe_buffer_bytes(size_mb), ops=ops,
                k=k, seed=env.seed, warmup=env.warmup_accesses,
                measure=env.measure_accesses,
            ),
            label=f"fig6[ops={ops},k={k},{size_mb}MB,{name}]",
        )
        for ops, k, size_mb, name in grid
    ]
    caps = dict(zip(grid, default_runner().run(tasks)))

    # data[ops][k] -> {"mean": [per size], "std": [per size]}
    panels: Dict[str, Dict[str, Dict[str, List[float]]]] = {}
    ladder: Dict[int, List[float]] = {k: [] for k in ks}

    for ops in ops_levels:
        panels[str(ops)] = {}
        for k in ks:
            means, stds = [], []
            for size_mb in sizes_mb:
                caps_mb = [caps[(ops, k, size_mb, name)] for name in dist_names]
                b = band(caps_mb)
                means.append(b.mean)
                stds.append(b.std)
                ladder[k].extend(caps_mb)
            panels[str(ops)][str(k)] = {"mean": means, "std": stds}

    ladder_mb = {k: band(v).mean for k, v in ladder.items()}
    record = ExperimentRecord(
        experiment_id="fig6",
        title="Fig. 6: effective L3 capacity under 0-5 CSThrs x compute intensity",
        params={
            "mode": env.mode,
            "scale": env.socket.scale,
            "sizes_mb": sizes_mb,
            "ops_levels": ops_levels,
            "distributions": dist_names,
            "csthr_counts": ks,
        },
        data={
            "sizes_mb": sizes_mb,
            "panels": panels,
            "capacity_ladder_mb": {str(k): v for k, v in ladder_mb.items()},
        },
    )
    paper = {0: 20.0, 1: 15.0, 2: 12.0, 3: 7.0, 4: 5.0, 5: 2.5}
    record.add_note(
        "measured ladder (MB): "
        + ", ".join(f"k={k}: {v:.1f}" for k, v in sorted(ladder_mb.items()))
    )
    record.add_note(
        "paper ladder (MB):    "
        + ", ".join(f"k={k}: {v}" for k, v in sorted(paper.items()))
    )
    return record


def render(record: ExperimentRecord) -> str:
    from ..analysis import format_table

    rows = []
    panels = record.data["panels"]
    sizes = record.data["sizes_mb"]
    for ops, by_k in panels.items():
        for k, series in by_k.items():
            for size, m, s in zip(sizes, series["mean"], series["std"]):
                rows.append((ops, k, size, m, s))
    return format_table(
        ("ops/load", "CSThrs", "buffer MB", "eff. capacity MB", "sigma"),
        rows,
        title=record.title,
        float_fmt="{:.2f}",
    )
