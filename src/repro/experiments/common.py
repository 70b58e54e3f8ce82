"""Shared infrastructure for the experiment drivers.

Every paper figure/table has one module in this package exposing a
``run_<id>(mode) -> ExperimentRecord`` function. ``mode`` trades
coverage for wall time:

- ``smoke`` — seconds-scale subset that CI's records check regenerates;
- ``paper`` — the grid recorded in EXPERIMENTS.md (minutes);
- ``full``  — the paper's complete 660-configuration grids (hours).

Select via the ``REPRO_MODE`` environment variable or the explicit
``mode`` argument.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

from ..config import SocketConfig, xeon20mb, xeon20mb_cluster
from ..errors import ConfigError
from ..units import MiB

SMOKE, PAPER, FULL = "smoke", "paper", "full"
_MODES = (SMOKE, PAPER, FULL)

#: The committed ExperimentRecord JSON files (``repro run``'s default --out).
DEFAULT_RESULTS_DIR = Path(__file__).resolve().parents[3] / "results"


def resolve_mode(mode: str | None = None) -> str:
    """Pick the experiment mode: explicit argument > ``REPRO_MODE`` env >
    smoke."""
    m = mode or os.environ.get("REPRO_MODE", SMOKE)
    if m not in _MODES:
        raise ConfigError(f"unknown mode {m!r}; pick one of {_MODES}")
    return m


def pick(mode: str, smoke, paper, full):
    """Three-way selection helper."""
    return {SMOKE: smoke, PAPER: paper, FULL: full}[resolve_mode(mode)]


@dataclass(frozen=True)
class ExperimentEnv:
    """Machine + window sizes for one experiment run."""

    socket: SocketConfig
    mode: str
    warmup_accesses: int
    measure_accesses: int
    seed: int = 0

    @property
    def l3_paper_bytes(self) -> int:
        return self.socket.unscaled_bytes(self.socket.l3.capacity_bytes)


def default_env(mode: str | None = None, seed: int = 0) -> ExperimentEnv:
    """The standard Xeon20MB environment used by every experiment."""
    m = resolve_mode(mode)
    warm = pick(m, 30_000, 60_000, 120_000)
    meas = pick(m, 20_000, 40_000, 80_000)
    return ExperimentEnv(
        socket=xeon20mb(),
        mode=m,
        warmup_accesses=warm,
        measure_accesses=meas,
        seed=seed,
    )


def default_cluster(n_nodes: int = 32):
    return xeon20mb_cluster(n_nodes=n_nodes)


# -- paper grids ------------------------------------------------------------------


def probe_buffer_sizes_mb(mode: str | None = None) -> List[int]:
    """The Fig. 5/6 x-axis: buffer sizes from 30 to 74 MB (paper: 22
    steps of 2 MB)."""
    m = resolve_mode(mode)
    if m == FULL:
        # 22 sizes ending at 74 MB (the paper's 660-configuration grid is
        # 10 distributions x 3 intensities x 22 sizes).
        return list(range(32, 75, 2))
    if m == PAPER:
        return [30, 36, 42, 50, 58, 66, 74]
    return [30, 50, 74]


def ops_per_load(mode: str | None = None) -> List[int]:
    """The Fig. 6 compute intensities (1, 10, 100 integer additions)."""
    m = resolve_mode(mode)
    if m == SMOKE:
        return [1, 100]
    return [1, 10, 100]


def distribution_names(mode: str | None = None) -> List[str]:
    """Which Table II distributions a grid uses."""
    m = resolve_mode(mode)
    if m == SMOKE:
        return ["Norm_6", "Exp_6", "Tri_2", "Uni"]
    return [
        "Norm_4", "Norm_6", "Norm_8",
        "Exp_4", "Exp_6", "Exp_8",
        "Tri_1", "Tri_2", "Tri_3",
        "Uni",
    ]


def csthr_counts(mode: str | None = None) -> Sequence[int]:
    return range(6)


def bwthr_counts(mode: str | None = None) -> Sequence[int]:
    return range(3)


def mcb_particle_counts(mode: str | None = None) -> List[int]:
    m = resolve_mode(mode)
    if m == FULL:
        return [20_000, 60_000, 90_000, 130_000, 170_000, 210_000, 260_000]
    if m == PAPER:
        return [20_000, 60_000, 90_000, 160_000, 260_000]
    return [20_000, 90_000, 260_000]


def mcb_mappings(mode: str | None = None) -> List[int]:
    """Processes per socket for the Fig. 9-top mapping study (paper:
    p = 1, 2, 3, 4, 6)."""
    m = resolve_mode(mode)
    if m == SMOKE:
        return [1, 4]
    return [1, 2, 3, 4, 6]


def lulesh_edges(mode: str | None = None) -> List[int]:
    m = resolve_mode(mode)
    if m == FULL:
        return [22, 24, 26, 28, 30, 32, 34, 36]
    if m == PAPER:
        return [22, 26, 30, 32, 36]
    return [22, 30, 36]


def lulesh_mappings(mode: str | None = None) -> List[int]:
    m = resolve_mode(mode)
    if m == SMOKE:
        return [1, 4]
    return [1, 2, 4]


def probe_buffer_bytes(size_mb: int) -> int:
    return size_mb * MiB
