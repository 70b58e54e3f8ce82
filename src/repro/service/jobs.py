"""Declarative measurement jobs: what a tenant submits to the service.

A job is *data*, not code: an app profile name (+ scalar parameters), a
socket preset name, and a sweep spec. Declarative specs are what makes
the broker durable — a job survives any number of process deaths as a
JSON line and is rebuilt into a live :class:`~repro.core.ActiveMeasurement`
only inside the agent that leases it. They are also what makes results
*deduplicable*: two tenants submitting the same spec share cache keys,
journal keys and therefore measurements.

The registries map names to builders:

- :data:`APP_PROFILES` — measured-workload factories (the demand side;
  Examem-style continuously-measured applications would register here).
- :data:`PRESETS` — socket configurations from :mod:`repro.config`.

Both raise :class:`~repro.errors.ServiceError` on unknown names so a
typo in a submission fails at *submission time*, not hours later inside
an agent.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Tuple

from ..config import SocketConfig, presets
from ..errors import ServiceError
from ..units import MiB
from ..workloads import (
    ExponentialDist,
    HotColdProbe,
    NormalDist,
    PointerChase,
    ProbabilisticBenchmark,
    StreamTriad,
    TriangularDist,
    UniformDist,
    ZipfDist,
)

#: Bump when the JobSpec layout changes (part of every job config key).
JOB_FORMAT = 1

#: Sweep kinds a job may request (mirrors repro.core.sweep.CS/BW).
KINDS = ("cs", "bw")

_DISTS: Dict[str, Callable[[], Any]] = {
    "uniform": UniformDist,
    "normal": NormalDist,
    "exponential": ExponentialDist,
    "triangular": TriangularDist,
    "zipf": ZipfDist,
}


@dataclass(frozen=True)
class _ProbeFactory:
    """Picklable factory for a Table II probabilistic probe."""

    dist: str
    buffer_bytes: int
    ops_per_access: int

    def __call__(self):
        return ProbabilisticBenchmark(
            _DISTS[self.dist](), self.buffer_bytes, self.ops_per_access
        )


@dataclass(frozen=True)
class _StreamFactory:
    array_bytes: int

    def __call__(self):
        return StreamTriad(array_bytes=self.array_bytes)


@dataclass(frozen=True)
class _HotColdFactory:
    hot_bytes: int
    hot_fraction: float

    def __call__(self):
        return HotColdProbe(
            hot_bytes=self.hot_bytes, hot_fraction=self.hot_fraction
        )


@dataclass(frozen=True)
class _ChaseFactory:
    buffer_bytes: int

    def __call__(self):
        return PointerChase(
            buffer_bytes=self.buffer_bytes, scale_with_machine=True
        )


def _probe(params: Dict[str, Any]):
    return _ProbeFactory(
        dist=str(params.get("dist", "uniform")),
        buffer_bytes=int(params.get("buffer_bytes", 50 * MiB)),
        ops_per_access=int(params.get("ops_per_access", 1)),
    )


def _stream(params: Dict[str, Any]):
    return _StreamFactory(array_bytes=int(params.get("array_bytes", 80 * MiB)))


def _hotcold(params: Dict[str, Any]):
    return _HotColdFactory(
        hot_bytes=int(params.get("hot_bytes", 2 * MiB)),
        hot_fraction=float(params.get("hot_fraction", 0.9)),
    )


def _chase(params: Dict[str, Any]):
    return _ChaseFactory(buffer_bytes=int(params.get("buffer_bytes", 64 * MiB)))


#: app profile name -> factory builder(params) -> workload factory.
APP_PROFILES: Dict[str, Callable[[Dict[str, Any]], Any]] = {
    "probe": _probe,
    "stream": _stream,
    "hotcold": _hotcold,
    "chase": _chase,
}

#: socket preset name -> SocketConfig builder.
PRESETS: Dict[str, Callable[[], SocketConfig]] = {
    "xeon20mb": presets.xeon20mb,
    "exascale": presets.exascale_node,
    "tiny": presets.tiny_socket,
}


def resolve_preset(name: str) -> SocketConfig:
    try:
        return PRESETS[name]()
    except KeyError:
        raise ServiceError(
            f"unknown socket preset {name!r}; pick one of {sorted(PRESETS)}"
        ) from None


def resolve_app(name: str, params: Dict[str, Any]):
    try:
        builder = APP_PROFILES[name]
    except KeyError:
        raise ServiceError(
            f"unknown app profile {name!r}; pick one of {sorted(APP_PROFILES)}"
        ) from None
    try:
        return builder(dict(params))
    except (TypeError, ValueError) as exc:
        raise ServiceError(
            f"invalid parameters for app profile {name!r}: {exc}"
        ) from exc


@dataclass(frozen=True)
class JobSpec:
    """One submission: app profile + socket preset + sweep spec.

    Everything is JSON-serialisable scalars, so a spec survives the
    broker's JSONL log byte-for-byte and two submissions with equal
    specs are *the same measurement* (equal :meth:`config_key`, hence
    shared cache/journal entries).
    """

    app: str
    preset: str
    kind: str
    ks: Tuple[int, ...]
    seed: int = 0
    warmup_accesses: int = 25_000
    measure_accesses: int = 15_000
    app_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ServiceError(
                f"unknown sweep kind {self.kind!r}; pick one of {KINDS}"
            )
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if not self.ks:
            raise ServiceError("sweep spec needs at least one k")
        if len(set(self.ks)) != len(self.ks):
            raise ServiceError(f"duplicate interference levels in ks={self.ks}")
        if any(k < 0 for k in self.ks):
            raise ServiceError("interference levels must be non-negative")
        if self.app not in APP_PROFILES:
            raise ServiceError(
                f"unknown app profile {self.app!r}; "
                f"pick one of {sorted(APP_PROFILES)}"
            )
        if self.preset not in PRESETS:
            raise ServiceError(
                f"unknown socket preset {self.preset!r}; "
                f"pick one of {sorted(PRESETS)}"
            )
        for key, value in self.app_params.items():
            if not isinstance(value, (int, float, str, bool)):
                raise ServiceError(
                    f"app parameter {key!r} must be a scalar, "
                    f"got {type(value).__name__}"
                )

    # -- identity -------------------------------------------------------------

    def workload_spec(self) -> str:
        """Stable workload identity string for the result cache (the
        ``workload_spec`` handed to :class:`ActiveMeasurement`)."""
        params = ",".join(
            f"{k}={self.app_params[k]!r}" for k in sorted(self.app_params)
        )
        return f"service/{self.app}({params})"

    def config_key(self) -> str:
        """Content hash of the measurement spec — the job's campaign
        identity (guards journals against cross-job reuse, dedups
        submissions)."""
        from ..core.parallel import cache_key

        return cache_key(job_format=JOB_FORMAT, **self.to_dict())

    # -- (de)serialisation ----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        out["ks"] = list(self.ks)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        # Keys outside the spec are ignored: logs written before
        # queue format 3 carry the withdrawn ``priority``/``deadline_s``.
        try:
            return cls(
                app=str(data["app"]),
                preset=str(data["preset"]),
                kind=str(data["kind"]),
                ks=tuple(data["ks"]),
                seed=int(data.get("seed", 0)),
                warmup_accesses=int(data.get("warmup_accesses", 25_000)),
                measure_accesses=int(data.get("measure_accesses", 15_000)),
                app_params=dict(data.get("app_params", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed job spec {data!r}: {exc}") from exc

    # -- execution ------------------------------------------------------------

    def build_measurement(self, runner=None):
        """Rebuild the live campaign driver this spec describes (called
        inside the agent that leased the job)."""
        from ..core.sweep import ActiveMeasurement

        socket = resolve_preset(self.preset)
        factory = resolve_app(self.app, self.app_params)
        return ActiveMeasurement(
            socket,
            factory,
            seed=self.seed,
            warmup_accesses=self.warmup_accesses,
            measure_accesses=self.measure_accesses,
            runner=runner,
            workload_spec=self.workload_spec(),
        )
