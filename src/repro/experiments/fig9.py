"""Fig. 9 — MCB performance degradation (Section IV).

Top panels: MCB on 24 ranks with 20,000 particles, mapped p = 1..6
processes per socket, against 0-5 CSThrs (left) and 0-2 BWThrs (right).
Paper: consistent degradation ordering — the more processes share a
socket, the fewer CSThrs are needed for the same degradation.

Bottom panels: p = 1, census 20k-260k. Paper: little degradation for
1-3 CSThrs, 20-25% at 4-5; bandwidth impact grows to ~90k particles and
then shrinks as compute dilutes communication.
"""

from __future__ import annotations

from ..analysis import ExperimentRecord
from ..apps import MCBProxy
from ..cluster import NoiseModel
from ..core.parallel import default_runner
from . import appsweeps, common

N_RANKS = 24


def _builder(n_particles, rank, mapping, env):
    return MCBProxy(
        n_particles=int(n_particles),
        n_ranks=N_RANKS,
        rank=rank,
        mapping=mapping,
        comm_env=env,
        n_iterations=2,
    )


def run_fig9(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    m = common.resolve_mode(mode)
    cluster = common.default_cluster()
    noise = NoiseModel()
    cs_ks = list(common.csthr_counts(m))
    bw_ks = list(common.bwthr_counts(m))
    runner = default_runner()

    top = appsweeps.mapping_sweeps(
        cluster,
        N_RANKS,
        common.mcb_mappings(m),
        _builder,
        input_value=20_000,
        cs_ks=cs_ks,
        bw_ks=bw_ks,
        noise=noise,
        seed=seed,
        runner=runner,
    )
    bottom = appsweeps.input_sweeps(
        cluster,
        N_RANKS,
        common.mcb_particle_counts(m),
        _builder,
        cs_ks=cs_ks,
        bw_ks=bw_ks,
        noise=noise,
        seed=seed,
        runner=runner,
    )

    record = ExperimentRecord(
        experiment_id="fig9",
        title="Fig. 9: MCB degradation across mappings and particle counts",
        params={
            "mode": m,
            "n_ranks": N_RANKS,
            "mappings": list(top.keys()),
            "particles": [int(p) for p in bottom.keys()],
            "cs_ks": cs_ks,
            "bw_ks": bw_ks,
        },
        data={
            "top_times_ns": appsweeps.jsonable(top),
            "bottom_times_ns": appsweeps.jsonable(bottom),
        },
    )
    # Headline checks against the paper's qualitative claims.
    for n, sweep in bottom.items():
        cs = appsweeps.slowdown_series(sweep, "cs")
        record.add_note(
            f"{n} particles: cs slowdowns "
            + ", ".join(f"k={k}:{v:.3f}" for k, v in cs.items())
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
        title="Fig. 9 top: MCB 20k particles across mappings",
        float_fmt="{:.3f}",
    )
    rows = []
    for n, kinds in record.data["bottom_times_ns"].items():
        base = kinds["cs"]["0"]
        for kind, times in kinds.items():
            for k, t in sorted(times.items(), key=lambda kv: int(kv[0])):
                rows.append((n, kind, k, t / 1e6, t / base))
    bottom = format_table(
        ("particles", "kind", "k", "time ms", "slowdown"),
        rows,
        title="Fig. 9 bottom: MCB census sweep at p=1",
        float_fmt="{:.3f}",
    )
    return top + "\n\n" + bottom
