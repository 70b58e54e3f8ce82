"""Fig. 11 — Lulesh performance degradation (Section IV).

Top panels: Lulesh on 64 ranks, 22^3 domain, across mappings and
interference. Paper: with 4 processes per socket, any CSThr overflows
the L3.

Bottom panels: p = 1, edges 22-36. Paper: domains <= 32^3 degrade <5%
for 1-2 CSThrs and >10% at 5; larger domains overflow with any storage
interference; bandwidth interference costs >10% for edges 32/36.
"""

from __future__ import annotations

from ..analysis import ExperimentRecord
from ..apps import LuleshProxy
from ..cluster import NoiseModel
from ..core.parallel import default_runner
from . import appsweeps, common

N_RANKS = 64


def _builder(edge, rank, mapping, env):
    return LuleshProxy(
        edge=int(edge),
        n_ranks=N_RANKS,
        rank=rank,
        mapping=mapping,
        comm_env=env,
        n_iterations=2,
    )


def run_fig11(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    m = common.resolve_mode(mode)
    cluster = common.default_cluster()
    noise = NoiseModel()
    cs_ks = list(common.csthr_counts(m))
    bw_ks = list(common.bwthr_counts(m))
    runner = default_runner()

    top = appsweeps.mapping_sweeps(
        cluster,
        N_RANKS,
        common.lulesh_mappings(m),
        _builder,
        input_value=22,
        cs_ks=cs_ks,
        bw_ks=bw_ks,
        noise=noise,
        seed=seed,
        runner=runner,
    )
    bottom = appsweeps.input_sweeps(
        cluster,
        N_RANKS,
        common.lulesh_edges(m),
        _builder,
        cs_ks=cs_ks,
        bw_ks=bw_ks,
        noise=noise,
        seed=seed,
        runner=runner,
    )

    record = ExperimentRecord(
        experiment_id="fig11",
        title="Fig. 11: Lulesh degradation across mappings and domain sizes",
        params={
            "mode": m,
            "n_ranks": N_RANKS,
            "mappings": list(top.keys()),
            "edges": [int(e) for e in bottom.keys()],
            "cs_ks": cs_ks,
            "bw_ks": bw_ks,
        },
        data={
            "top_times_ns": appsweeps.jsonable(top),
            "bottom_times_ns": appsweeps.jsonable(bottom),
        },
    )
    for e, sweep in bottom.items():
        cs = appsweeps.slowdown_series(sweep, "cs")
        bw = appsweeps.slowdown_series(sweep, "bw")
        record.add_note(
            f"edge {e}: cs "
            + ", ".join(f"k={k}:{v:.3f}" for k, v in cs.items())
            + " | bw "
            + ", ".join(f"k={k}:{v:.3f}" for k, v in bw.items())
        )
    return record


def render(record: ExperimentRecord) -> str:
    from ..analysis import format_table

    rows = []
    for p, kinds in record.data["top_times_ns"].items():
        base = kinds["cs"]["0"]
        for kind, times in kinds.items():
            for k, t in sorted(times.items(), key=lambda kv: int(kv[0])):
                rows.append((f"p={p}", kind, k, t / 1e6, t / base))
    top = format_table(
        ("mapping", "kind", "k", "time ms", "slowdown"),
        rows,
        title="Fig. 11 top: Lulesh 22^3 across mappings",
        float_fmt="{:.3f}",
    )
    rows = []
    for e, kinds in record.data["bottom_times_ns"].items():
        base = kinds["cs"]["0"]
        for kind, times in kinds.items():
            for k, t in sorted(times.items(), key=lambda kv: int(kv[0])):
                rows.append((f"{e}^3", kind, k, t / 1e6, t / base))
    bottom = format_table(
        ("domain", "kind", "k", "time ms", "slowdown"),
        rows,
        title="Fig. 11 bottom: Lulesh domain sweep at p=1",
        float_fmt="{:.3f}",
    )
    return top + "\n\n" + bottom
