"""RankApp phase framework."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.apps import BufferSpec, CommEnv, RandomPhase, RankApp, StreamPhase
from repro.apps.base import REMOTE_STAGING_STREAM
from repro.cluster import CommModel, Distance, NoiseModel
from repro.config import NetworkConfig, tiny_socket
from repro.engine import ThreadContext
from repro.errors import ConfigError
from repro.mem import AddressSpace
from repro.units import KiB


class TwoPhaseApp(RankApp):
    """1 KiB stream + 64 random accesses over a second buffer."""

    def __init__(self, comm=None, remote_bytes=0, local_bytes=0, **kw):
        super().__init__(comm_env=comm, **kw)
        self._remote = remote_bytes
        self._local = local_bytes

    def buffer_specs(self):
        return [
            BufferSpec("stream", 1 * KiB, elem_bytes=8),
            BufferSpec("table", 2 * KiB, elem_bytes=4),
        ]

    def iteration_phases(self):
        return [
            StreamPhase("stream", passes=2.0, ops_per_access=3),
            RandomPhase("table", n_accesses=64, ops_per_access=5, is_write=True),
        ]

    def comm_bytes_by_distance(self):
        out = {}
        if self._local:
            out[Distance.SOCKET] = self._local
        if self._remote:
            out[Distance.REMOTE] = self._remote
        return out


def ctx_for(socket=None, seed=0):
    socket = socket or tiny_socket()
    return ThreadContext(
        socket=socket,
        addrspace=AddressSpace(line_bytes=64),
        rng=np.random.default_rng(seed),
        core_id=0,
    )


def comm_env():
    return CommEnv(
        comm_model=CommModel.for_network(NetworkConfig()),
        noise=NoiseModel(sigma=0.0),
        n_ranks=8,
    )


class TestAllocationAndPhases:
    def test_buffers_allocated_by_label(self):
        app = TwoPhaseApp()
        app.start(ctx_for())
        assert set(app.buffers) == {"stream", "table"}
        assert app.buffers["stream"].size_bytes == 1 * KiB

    def test_working_set_sums_specs(self):
        assert TwoPhaseApp().working_set_paper_bytes() == 3 * KiB

    def test_iteration_chunk_volume(self):
        app = TwoPhaseApp(n_iterations=2)
        app.start(ctx_for())
        total = sum(len(c) for c in app.chunks())
        stream_lines = app.buffers["stream"].n_lines
        per_iter = 2 * stream_lines + 64
        assert total == 2 * per_iter

    def test_stream_phase_sequential_lines(self):
        app = TwoPhaseApp()
        app.start(ctx_for())
        first = next(iter(app.chunks()))
        diffs = {b - a for a, b in zip(first.lines, first.lines[1:])}
        assert diffs <= {1, 1 - app.buffers["stream"].n_lines}

    def test_random_phase_not_prefetchable_and_in_range(self):
        app = TwoPhaseApp()
        app.start(ctx_for())
        chunks = list(app.chunks())
        rand = [c for c in chunks if not c.prefetchable]
        assert rand, "random phase must emit non-prefetchable chunks"
        buf = app.buffers["table"]
        for c in rand:
            assert all(
                buf.base_line <= a < buf.base_line + buf.n_lines for a in c.lines
            )

    def test_unknown_buffer_reference_raises(self):
        class Broken(TwoPhaseApp):
            def iteration_phases(self):
                return [StreamPhase("nope")]

        app = Broken()
        app.start(ctx_for())
        with pytest.raises(ConfigError, match="unknown buffer"):
            list(app.chunks())

    def test_unknown_phase_type_raises(self):
        class Broken(TwoPhaseApp):
            def iteration_phases(self):
                return ["not-a-phase"]

        app = Broken()
        app.start(ctx_for())
        with pytest.raises(ConfigError, match="unknown phase"):
            list(app.chunks())

    def test_rejects_zero_iterations(self):
        with pytest.raises(ConfigError):
            TwoPhaseApp(n_iterations=0)


class TestCommunication:
    def test_no_comm_without_env(self):
        app = TwoPhaseApp(remote_bytes=4096)  # comm declared, env missing
        app.start(ctx_for())
        assert all(c.extra_ns == 0.0 for c in app.chunks())

    def test_remote_comm_charges_wire_time(self):
        app = TwoPhaseApp(comm=comm_env(), remote_bytes=64 * KiB, n_iterations=1)
        app.start(ctx_for())
        extras = [c.extra_ns for c in app.chunks()]
        assert sum(extras) > 0
        expected = comm_env().comm_model.p2p_ns(64 * KiB, Distance.REMOTE)
        assert sum(extras) == pytest.approx(expected, rel=0.01)

    def test_remote_staging_rotates_buffers(self):
        """Iteration i stages its off-socket traffic through every line
        of pool buffer i, in order."""
        app = TwoPhaseApp(comm=comm_env(), remote_bytes=16 * KiB, n_iterations=2)
        app.start(ctx_for())
        pool = app._remote_staging
        assert len(pool) > 1
        chunks = list(app.chunks())
        staged = [c for c in chunks if c.stream_id == REMOTE_STAGING_STREAM]
        assert len(staged) >= 2
        expected = [np.arange(b.base_line, b.base_line + b.n_lines) for b in pool[:2]]
        assert np.array_equal(
            np.concatenate([c.lines for c in staged]), np.concatenate(expected)
        )

    def test_local_comm_uses_single_resident_buffer(self):
        app = TwoPhaseApp(comm=comm_env(), local_bytes=8 * KiB)
        app.start(ctx_for())
        assert app._local_staging is not None
        assert app._remote_staging == []

    def test_pure_wire_comm_still_charged(self):
        """Tiny messages below line granularity must still cost time."""

        class WireOnly(TwoPhaseApp):
            def comm_bytes_by_distance(self):
                return {Distance.REMOTE: 16}

        # 16 bytes scale to < 1 line; staging allocation still happens at
        # >= 1 line, so the time is attached to the staging chunk.
        app = WireOnly(comm=comm_env())
        app.start(ctx_for())
        assert sum(c.extra_ns for c in app.chunks()) > 0


#: Prints the prefetcher stream ids of an MCB and a Lulesh rank with
#: on- and off-socket communication, in order of first use.
STREAM_IDS_SCRIPT = """
from repro.apps import CommEnv, LuleshProxy, MCBProxy
from repro.cluster import CommModel, NoiseModel, ProcessMapping
from repro.config import NetworkConfig, xeon20mb, xeon20mb_cluster
from repro.engine import ThreadContext
from repro.mem import AddressSpace
import json
import numpy as np

cluster = xeon20mb_cluster(n_nodes=32)
env = CommEnv(CommModel.for_network(NetworkConfig()), NoiseModel())
for app in (
    MCBProxy(mapping=ProcessMapping(cluster, 24, 4), comm_env=env, n_iterations=1),
    LuleshProxy(mapping=ProcessMapping(cluster, 64, 4), comm_env=env, n_iterations=1),
):
    app.start(ThreadContext(xeon20mb(), AddressSpace(), np.random.default_rng(0), 0))
    ids = [c.stream_id for c in app.chunks() if c.prefetchable]
    print(json.dumps(sorted(set(ids), key=ids.index)))
"""


def test_stream_ids_do_not_depend_on_the_hash_seed():
    """Prefetcher stream ids come from the buffer order, not from the
    process's salted string hash: two interpreters with different
    ``PYTHONHASHSEED`` values compute the same ids."""
    src = str(Path(repro.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", STREAM_IDS_SCRIPT],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]
    mcb_ids, lulesh_ids = (json.loads(line) for line in outs[0].splitlines())
    assert len(set(mcb_ids)) == len(mcb_ids) == 4   # geometry, particles + staging
    assert REMOTE_STAGING_STREAM in mcb_ids and REMOTE_STAGING_STREAM in lulesh_ids
