"""Multi-socket NUMA study (extension: the testbed's second socket).

The paper's node is a 2-socket E5-2670, but its measurement protocol
deliberately confines each experiment to one socket. This driver runs the
scenarios the :class:`~repro.engine.node.NodeSimulator` opens:

- **placement asymmetry** — the STREAM-style local/remote gap: the same
  streaming workload, first socket, with its pages homed locally
  (first-touch) vs pinned to the other socket (membind-style); plus a
  DRAM-resident pointer chase whose per-fill remote surcharge exposes the
  configured QPI penalty directly;
- **interference asymmetry** — a first-touch application on socket 0
  co-run with k BWThrs placed either on the *same* socket (shared L3 and
  DRAM link) or on the *other* socket (own L3, own link, local pages).
  Local interference must degrade the app strictly more — cross-socket
  isolation is the whole point of NUMA-aware placement;
- **rank spanning** — two application ranks block-placed via
  :class:`~repro.cluster.mapping.ProcessMapping`, compact (one socket)
  vs spread (one rank per socket), with first-touch placement.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..analysis import ExperimentRecord
from ..cluster.mapping import ProcessMapping
from ..config import NodeConfig, xeon20mb_cluster, xeon20mb_node
from ..engine import NodeSimulator
from ..units import MiB, as_GBps
from ..workloads import BWThr, PointerChase, ProbabilisticBenchmark, UniformDist
from . import common


def _app_factory(env) -> Callable:
    """Bandwidth-sensitive measured application (working set >> L3)."""
    return lambda: ProbabilisticBenchmark(
        UniformDist(), 40 * MiB, ops_per_access=1, name="scan-40MB"
    )


def _time_per_access(result, core: int) -> float:
    c = result.counters_of(core)
    return c.elapsed_ns / c.accesses if c.accesses else 0.0


def _solo(node: NodeConfig, env, factory, seed: int, home: Optional[int] = None):
    """One measured thread on socket 0; returns (result, core)."""
    sim = NodeSimulator(node, seed=seed)
    core = sim.add_thread(factory(), socket=0, main=True, home_socket=home)
    sim.warmup(env.warmup_accesses)
    return sim.measure(env.measure_accesses), core


def _corun(node: NodeConfig, env, factory, k: int, intf_socket: int, seed: int):
    """App on socket 0 (first-touch local) plus ``k`` BWThrs on
    ``intf_socket`` (first-touch local to wherever they run)."""
    sim = NodeSimulator(node, seed=seed)
    core = sim.add_thread(factory(), socket=0, main=True)
    for i in range(k):
        sim.add_thread(BWThr(name=f"BWThr[{i}]"), socket=intf_socket)
    sim.warmup(env.warmup_accesses)
    return sim.measure(env.measure_accesses), core


def run_numa(mode: str | None = None, seed: int = 0) -> ExperimentRecord:
    env = common.default_env(mode, seed=seed)
    node = xeon20mb_node()
    factory = _app_factory(env)
    ks = common.pick(env.mode, [2], [1, 2, 4], [1, 2, 4, 6])

    # -- placement asymmetry: bandwidth ------------------------------------
    bw: Dict[str, float] = {}
    remote_stats: Dict[str, float] = {}
    for tag, home in (("local", None), ("remote", 1)):
        res, core = _solo(node, env, lambda: BWThr(name="stream"), seed, home=home)
        bw[tag] = res.bandwidth_Bps(core)
        if tag == "remote":
            c = res.counters_of(core)
            remote_stats = {
                "remote_fraction": res.remote_fraction(core),
                "remote_fills": c.remote_fills,
                "ns_per_remote_fill": (
                    c.remote_ns / c.remote_fills if c.remote_fills else 0.0
                ),
                "xlink_utilization": res.xlink_utilization(),
            }

    # -- placement asymmetry: latency --------------------------------------
    chase_bytes = 4 * node.socket.l3.capacity_bytes  # DRAM-resident
    lat: Dict[str, float] = {}
    for tag, home in (("local", None), ("remote", 1)):
        res, core = _solo(
            node, env, lambda: PointerChase(chase_bytes), seed, home=home
        )
        lat[tag] = _time_per_access(res, core)

    # -- interference asymmetry --------------------------------------------
    solo_res, solo_core = _solo(node, env, factory, seed)
    base = _time_per_access(solo_res, solo_core)
    interference = {}
    for k in ks:
        row = {}
        for tag, intf_socket in (("local", 0), ("remote", 1)):
            res, core = _corun(node, env, factory, k, intf_socket, seed)
            row[tag] = _time_per_access(res, core) / base
        row["isolation_gain"] = row["local"] / row["remote"]
        interference[k] = row

    # -- rank spanning ------------------------------------------------------
    cluster = xeon20mb_cluster(n_nodes=1)
    spanning = {}
    for tag, pps in (("compact", 2), ("spread", 1)):
        mapping = ProcessMapping(cluster, n_ranks=2, procs_per_socket=pps)
        sim = NodeSimulator(node, seed=seed)
        sim.add_ranks(mapping, lambda rank: factory())
        sim.warmup(env.warmup_accesses)
        res = sim.measure(env.measure_accesses)
        spanning[tag] = {
            "makespan_ns": res.makespan_ns,
            "remote_fraction": max(
                res.remote_fraction(c) for c in res.main_cores
            ),
        }

    record = ExperimentRecord(
        experiment_id="numa",
        title="Extension: NUMA local/remote asymmetry on the 2-socket node",
        params={
            "mode": env.mode,
            "seed": seed,
            "node": node.describe(),
            "remote_penalty_ns": node.remote_penalty_ns,
            "link_bandwidth_GBps": as_GBps(node.link_bandwidth_Bps),
            "bwthr_counts": list(ks),
        },
        data={
            "stream_bandwidth_Bps": bw,
            "stream_remote_ratio": bw["remote"] / bw["local"] if bw["local"] else 0.0,
            "remote_fill_stats": remote_stats,
            "chase_ns_per_access": lat,
            "chase_remote_extra_ns": lat["remote"] - lat["local"],
            "interference_slowdown": interference,
            "rank_spanning": spanning,
        },
    )
    record.add_note(
        f"remote/local STREAM bandwidth ratio: "
        f"{record.data['stream_remote_ratio']:.2f} "
        f"(as_GBps local {as_GBps(bw['local']):.2f}, "
        f"remote {as_GBps(bw['remote']):.2f})"
    )
    record.add_note(
        f"pointer-chase remote surcharge: "
        f"{record.data['chase_remote_extra_ns']:.1f} ns/access "
        f"(configured penalty {node.remote_penalty_ns:.0f} ns/fill)"
    )
    for k, row in interference.items():
        record.add_note(
            f"k={k} BWThr: local slowdown {row['local']:.2f}x vs "
            f"remote-socket {row['remote']:.2f}x"
        )
    return record


def render(record: ExperimentRecord) -> str:
    from ..analysis import format_table

    d = record.data
    rows = [
        (k, row["local"], row["remote"], row["isolation_gain"])
        for k, row in d["interference_slowdown"].items()
    ]
    table = format_table(
        ("k BWThr", "same-socket", "other-socket", "gain"),
        rows,
        title=record.title,
        float_fmt="{:.3f}",
    )
    lines = [
        table,
        "",
        f"stream: local {as_GBps(d['stream_bandwidth_Bps']['local']):.2f} GB/s, "
        f"remote {as_GBps(d['stream_bandwidth_Bps']['remote']):.2f} GB/s "
        f"(ratio {d['stream_remote_ratio']:.2f})",
        f"chase: local {d['chase_ns_per_access']['local']:.1f} ns, "
        f"remote {d['chase_ns_per_access']['remote']:.1f} ns "
        f"(+{d['chase_remote_extra_ns']:.1f} ns)",
    ]
    for tag, row in d["rank_spanning"].items():
        lines.append(
            f"ranks {tag}: makespan {row['makespan_ns'] / 1e6:.3f} ms, "
            f"remote fraction {row['remote_fraction']:.3f}"
        )
    return "\n".join(lines)
