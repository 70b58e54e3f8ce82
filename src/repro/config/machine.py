"""Machine-level configuration: timing, prefetch, socket, node, cluster.

The object graph mirrors the paper's testbed description (Section II and
Table I): a cluster of 2-socket nodes, each socket an 8-core chip with
private L1/L2, a shared L3 and a finite-bandwidth link to DRAM.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..errors import ConfigError
from ..units import fmt_bytes, as_GBps
from .geometry import CacheGeometry


@dataclass(frozen=True)
class TimingConfig:
    """Latency/cost model parameters, all in nanoseconds.

    The defaults approximate a 2.6 GHz Sandy Bridge class core (the paper's
    Xeon E5-2670): L1 ~4 cycles, L2 ~12, L3 ~35, DRAM ~80 ns.

    ``ns_per_op`` prices one integer ALU operation; the paper's synthetic
    benchmarks insert 1/10/100 integer additions between loads.
    """

    l1_hit_ns: float = 1.5
    l2_hit_ns: float = 4.6
    l3_hit_ns: float = 13.5
    dram_latency_ns: float = 80.0
    ns_per_op: float = 0.385
    #: Cost of an access whose line was already staged by the prefetcher.
    #: Staged lines are installed in the shared L3 for capacity accounting,
    #: but an aggressive hardware prefetcher also pushes them into the
    #: private levels, so the timing benefit is close to an L1/L2 hit.
    prefetch_hit_ns: float = 2.0
    #: Memory-level parallelism: how many independent demand misses an
    #: out-of-order core overlaps. The per-miss stall charged is
    #: ``dram_latency_ns / mlp`` (plus link queueing). Dependent-chain
    #: probes (pointer chase) use mlp=1.
    mlp: float = 3.0

    def __post_init__(self) -> None:
        for name in (
            "l1_hit_ns",
            "l2_hit_ns",
            "l3_hit_ns",
            "dram_latency_ns",
            "ns_per_op",
            "prefetch_hit_ns",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"timing: {name} must be non-negative")
        if self.mlp < 1.0:
            raise ConfigError("timing: mlp must be >= 1")
        if not (self.l1_hit_ns <= self.l2_hit_ns <= self.l3_hit_ns <= self.dram_latency_ns):
            raise ConfigError(
                "timing: latencies must be monotone L1 <= L2 <= L3 <= DRAM"
            )


@dataclass(frozen=True)
class PrefetchConfig:
    """Stride prefetcher parameters.

    The paper relies on the hardware prefetcher to let BWThr saturate
    bandwidth ("the constant stride makes it possible for the hardware
    prefetcher to help use up more bandwidth") and on random access to
    defeat it for CSThr.
    """

    enabled: bool = True
    #: Number of lines fetched ahead once a stream is confirmed.
    degree: int = 6
    #: Consecutive accesses with identical line stride needed to confirm.
    detect_after: int = 2
    #: Number of independent stream trackers per core.
    n_streams: int = 48

    def __post_init__(self) -> None:
        if self.degree < 0 or self.detect_after < 1 or self.n_streams < 1:
            raise ConfigError("prefetch: invalid parameters")


@dataclass(frozen=True)
class SocketConfig:
    """One multicore socket: private L1/L2 per core, shared L3, DRAM link.

    ``dram_bandwidth_Bps`` is the sustainable fill bandwidth of the
    L3<->DRAM link (the paper's 17 GB/s STREAM figure). Write-back traffic
    is counted but not throttled (see DESIGN.md, simplifications).
    """

    n_cores: int
    l1: CacheGeometry
    l2: CacheGeometry
    l3: CacheGeometry
    dram_bandwidth_Bps: float
    timing: TimingConfig = field(default_factory=TimingConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    #: Geometric down-scale factor relative to the physical machine this
    #: config models; experiments use it to scale workload buffers and to
    #: un-scale axis labels. 1 means full size.
    scale: int = 1
    #: When true, dirty-line writebacks occupy link capacity like fills
    #: (they feed the arbiter's rate estimate). Default off, matching the
    #: paper's Eq. 1 accounting (fills only); the writeback ablation
    #: quantifies the difference. Writebacks are counted either way.
    throttle_writebacks: bool = False
    name: str = "socket"

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ConfigError("socket: n_cores must be positive")
        if self.dram_bandwidth_Bps <= 0:
            raise ConfigError("socket: dram bandwidth must be positive")
        if self.scale <= 0:
            raise ConfigError("socket: scale must be positive")
        if not (
            self.l1.line_bytes == self.l2.line_bytes == self.l3.line_bytes
        ):
            raise ConfigError("socket: all levels must share one line size")
        if not (
            self.l1.capacity_bytes <= self.l2.capacity_bytes <= self.l3.capacity_bytes
        ):
            raise ConfigError("socket: capacities must be monotone L1<=L2<=L3")

    @property
    def line_bytes(self) -> int:
        return self.l3.line_bytes

    def scaled(self, scale: int) -> "SocketConfig":
        """Scale all cache capacities down by ``scale`` (compounding)."""
        return replace(
            self,
            l1=self.l1.scaled(scale),
            l2=self.l2.scaled(scale),
            l3=self.l3.scaled(scale),
            scale=self.scale * scale,
        )

    def unscaled_bytes(self, sim_bytes: int) -> int:
        """Map a simulated size back to physical-machine units for reports."""
        return sim_bytes * self.scale

    def scaled_bytes(self, physical_bytes: int) -> int:
        """Map a physical-machine size (paper units) to simulated units."""
        scaled = physical_bytes // self.scale
        if scaled <= 0:
            raise ConfigError(
                f"{fmt_bytes(physical_bytes)} is too small to scale by "
                f"1/{self.scale}"
            )
        return scaled

    def describe(self) -> str:
        lines = [
            f"{self.name}: {self.n_cores} cores, scale 1/{self.scale}, "
            f"DRAM {as_GBps(self.dram_bandwidth_Bps):.3g} GB/s",
            "  " + self.l1.describe(),
            "  " + self.l2.describe(),
            "  " + self.l3.describe(),
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class NetworkConfig:
    """alpha-beta model of the interconnect (InfiniBand QDR by default:
    ~1.3 us latency, 40 Gb/s signalling -> ~4 GB/s data bandwidth)."""

    latency_ns: float = 1300.0
    bandwidth_Bps: float = 4.0e9

    def __post_init__(self) -> None:
        if self.latency_ns < 0 or self.bandwidth_Bps <= 0:
            raise ConfigError("network: invalid parameters")

    def transfer_ns(self, n_bytes: int) -> float:
        """Time to move ``n_bytes`` point-to-point (alpha + bytes/beta)."""
        return self.latency_ns + n_bytes / self.bandwidth_Bps * 1e9


@dataclass(frozen=True)
class NodeConfig:
    """A compute node: ``n_sockets`` identical sockets and node DRAM.

    Each socket owns its DRAM channels (its ``dram_bandwidth_Bps``); the
    sockets are joined by a QPI-style inter-socket link. A demand fill
    whose line is homed on another socket crosses that link: it pays
    ``remote_penalty_ns`` extra latency (the QPI hop plus the remote
    memory controller) and occupies ``link_bandwidth_Bps`` of link
    capacity. ``page_bytes`` is the granularity of the page-placement
    policies in :class:`~repro.mem.addrspace.AddressSpace`.
    """

    socket: SocketConfig
    n_sockets: int = 2
    dram_bytes: int = 32 * 1024**3
    #: Extra latency for a fill served by a remote socket's DRAM, ns.
    #: ~60 ns matches the local/remote asymmetry STREAM-style NUMA
    #: measurements report on 2-socket Sandy Bridge (remote ~1.7x local).
    remote_penalty_ns: float = 60.0
    #: Sustainable data bandwidth of the inter-socket link, bytes/s
    #: (QPI 8 GT/s on the paper's E5-2670; effective remote STREAM
    #: bandwidth is well below the local 17 GB/s).
    link_bandwidth_Bps: float = 12.8e9
    #: Page size for NUMA placement policies.
    page_bytes: int = 4096

    def __post_init__(self) -> None:
        if self.n_sockets <= 0 or self.dram_bytes <= 0:
            raise ConfigError("node: invalid parameters")
        if self.remote_penalty_ns < 0:
            raise ConfigError("node: remote_penalty_ns must be non-negative")
        if self.link_bandwidth_Bps <= 0:
            raise ConfigError("node: link bandwidth must be positive")
        if (
            self.page_bytes & (self.page_bytes - 1)
            or self.page_bytes < self.socket.line_bytes
        ):
            raise ConfigError(
                "node: page_bytes must be a power of two >= the line size"
            )

    @property
    def cores_per_node(self) -> int:
        return self.n_sockets * self.socket.n_cores

    def core_of(self, socket_idx: int, local_core: int) -> int:
        """Global (node-wide) core id of ``local_core`` on ``socket_idx``."""
        if not 0 <= socket_idx < self.n_sockets:
            raise ConfigError(f"socket {socket_idx} out of range")
        if not 0 <= local_core < self.socket.n_cores:
            raise ConfigError(f"local core {local_core} out of range")
        return socket_idx * self.socket.n_cores + local_core

    def socket_of_core(self, core: int) -> int:
        """Socket index owning global core id ``core``."""
        if not 0 <= core < self.cores_per_node:
            raise ConfigError(f"core {core} out of range")
        return core // self.socket.n_cores

    def describe(self) -> str:
        return (
            f"node: {self.n_sockets} x [{self.socket.name}], "
            f"link {as_GBps(self.link_bandwidth_Bps):.3g} GB/s, "
            f"remote +{self.remote_penalty_ns:.0f} ns, "
            f"pages {fmt_bytes(self.page_bytes)}"
        )


@dataclass(frozen=True)
class ClusterConfig:
    """A cluster of identical nodes joined by one network."""

    node: NodeConfig
    n_nodes: int
    network: NetworkConfig = field(default_factory=NetworkConfig)

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ConfigError("cluster: n_nodes must be positive")

    @property
    def total_cores(self) -> int:
        return self.n_nodes * self.node.cores_per_node

    @property
    def total_sockets(self) -> int:
        return self.n_nodes * self.node.n_sockets
