"""Section V comparisons: Bubble-Up and the Bandwidth Bandit.

Two quantitative arguments the paper makes against prior interference
probes, reproduced as experiments:

1. **Bubble-Up cannot decompose** (vs Mars et al. [14]): run two victims
   with opposite resource appetites — a *capacity* victim (random reads
   over ~L3-sized data, almost no bandwidth) and a *bandwidth* victim
   (streaming far beyond L3, almost no reusable capacity) — against the
   one-knob bubble and against the paper's CSThr/BWThr pair. The bubble
   degrades both victims along one indistinguishable axis; the 2-D
   probes separate them cleanly.

2. **Bandwidth-steal safety margin** (vs Eklov et al. [6][7]): the
   BWThr-capacity ablation (``run_bwthr_capacity_ablation``) quantifies
   how much L3 k BWThrs occupy — the effect the Bandwidth Bandit leaves
   unmeasured, and the reason the paper caps bandwidth stealing at 2
   threads / 32% of peak.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis import ExperimentRecord
from ..engine import SocketSimulator
from ..units import MiB
from ..workloads import BWThr, CSThr
from ..workloads.bubble import BubbleProbe
from . import common

#: Victim definitions. The capacity victim is a CSThr-shaped kernel (a
#: hot random-RMW working set it actively defends — the regime the
#: paper validates orthogonality in); the bandwidth victim is a
#: prefetch-covered stream whose capacity needs are nil.
def _capacity_victim():
    # The 4 MB hot-set kernel whose orthogonality Section III-D
    # validates: it defends its working set, so only genuine capacity
    # exhaustion (k=5 CSThrs) hurts it.
    return CSThr(name="cap_victim")


def _bandwidth_victim():
    # A low-overhead streaming kernel (~7.5 GB/s demand): the BWThr
    # skeleton with the identity-call overhead stripped out.
    return BWThr(
        buffer_bytes=4 * MiB, n_buffers=8, overhead_ops=2, name="bw_victim"
    )


VICTIMS = (
    ("capacity_victim", _capacity_victim),
    ("bandwidth_victim", _bandwidth_victim),
)


def _measure_victim(env, victim_factory, interferers, seed):
    sim = SocketSimulator(env.socket, seed=seed)
    core = sim.add_thread(victim_factory(), main=True)
    for thr in interferers:
        sim.add_thread(thr)
    sim.warmup(accesses=env.warmup_accesses)
    result = sim.measure(accesses=env.measure_accesses)
    c = result.counters_of(core)
    return c.elapsed_ns / c.accesses


def run_bubble_comparison(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    env = common.default_env(mode, seed=seed)
    pressures = [0.0, 0.33, 0.66, 1.0]
    cs_ks = [0, 3, 5]
    bw_ks = [0, 1, 2]
    n_bubbles = 3  # Bubble-Up replicates its bubble on colocated cores

    curves: Dict[str, Dict[str, List[float]]] = {}
    for name, factory in VICTIMS:
        bubble_curve = []
        for p in pressures:
            interferers = (
                [BubbleProbe(p, name=f"bubble{i}") for i in range(n_bubbles)]
                if p > 0
                else []
            )
            bubble_curve.append(_measure_victim(env, factory, interferers, seed))
        cs_curve = []
        for k in cs_ks:
            cs_curve.append(
                _measure_victim(
                    env, factory, [CSThr(name=f"CS{i}") for i in range(k)], seed
                )
            )
        bw_curve = []
        for k in bw_ks:
            bw_curve.append(
                _measure_victim(
                    env, factory, [BWThr(name=f"BW{i}") for i in range(k)], seed
                )
            )
        curves[name] = {
            "bubble": [t / bubble_curve[0] for t in bubble_curve],
            "cs": [t / cs_curve[0] for t in cs_curve],
            "bw": [t / bw_curve[0] for t in bw_curve],
        }

    record = ExperimentRecord(
        experiment_id="related_work_bubble",
        title="Sec. V: one-knob bubble vs the 2-D CSThr/BWThr decomposition",
        params={
            "mode": env.mode,
            "pressures": pressures,
            "cs_ks": cs_ks,
            "bw_ks": bw_ks,
            "victims": [name for name, _ in VICTIMS],
        },
        data={"slowdown_curves": curves},
    )
    cap, bw = curves["capacity_victim"], curves["bandwidth_victim"]
    record.add_note(
        f"bubble@1.0: capacity victim x{cap['bubble'][-1]:.2f}, "
        f"bandwidth victim x{bw['bubble'][-1]:.2f} — both degrade along "
        "the single knob; the curve shape cannot say which resource is "
        "responsible"
    )
    record.add_note(
        "2-D signatures: capacity victim "
        f"[cs@3 x{cap['cs'][1]:.3f}, cs@5 x{cap['cs'][2]:.3f} | "
        f"bw@1 x{cap['bw'][1]:.3f}] — storage onset, bandwidth flat; "
        "bandwidth victim "
        f"[cs@3 x{bw['cs'][1]:.3f} | bw@1 x{bw['bw'][1]:.3f}, "
        f"bw@2 x{bw['bw'][2]:.3f}] — bandwidth onset, storage flat"
    )
    return record


def render(record: ExperimentRecord) -> str:
    from ..analysis import format_table

    rows = []
    for victim, series in record.data["slowdown_curves"].items():
        for probe, values in series.items():
            rows.append((victim, probe, *(f"{v:.3f}" for v in values)))
    width = max(len(r) for r in rows)
    rows = [r + ("",) * (width - len(r)) for r in rows]
    headers = ("victim", "probe") + tuple(f"lvl{i}" for i in range(width - 2))
    return format_table(headers, rows, title=record.title)
