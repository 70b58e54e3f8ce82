"""Results store: byte parity with artifacts, backfill, queries."""

import json
from pathlib import Path

import pytest

from repro.errors import ServiceError
from repro.service import JobSpec, ResultsStore, ServiceClient


#: One of each ``repro query`` filter shape, plus one that matches
#: nothing.
FILTERS = (
    {},
    {"tenant": "alice"},
    {"app": "stream", "kind": "cs"},
    {"k_min": 1, "k_max": 1},
    {"preset": "xeon20mb"},
)


def spec(ks=(0, 1), seed=0, app="probe", **overrides):
    base = dict(app=app, preset="tiny", kind="cs", ks=ks, seed=seed,
                warmup_accesses=2_000, measure_accesses=1_000)
    base.update(overrides)
    return JobSpec(**base)


@pytest.fixture
def drained(tmp_path):
    """A root with two completed jobs (distinct tenants/apps) plus its
    client."""
    client = ServiceClient(tmp_path)
    j1 = client.submit(spec(), tenant="alice")
    j2 = client.submit(spec(app="stream", seed=1), tenant="bob")
    assert client.drain() == 2
    return client, j1, j2


class TestAgentPopulation:
    def test_agent_writes_store_rows_on_complete(self, drained):
        client, j1, j2 = drained
        points = client.store.query_points()
        assert len(points) == 4  # two jobs x two ks
        assert {r["job_id"] for r in points} == {j1, j2}

    def test_point_payload_matches_artifact_byte_for_byte(self, drained):
        client, j1, j2 = drained
        for job_id in (j1, j2):
            artifact = Path(client.status(job_id).result_path)
            rebuilt = json.dumps(
                client.store.point_payload(job_id),
                sort_keys=True, indent=1,
            ).encode()
            assert rebuilt == artifact.read_bytes()

    def test_point_rows_carry_job_identity(self, drained):
        client, j1, _ = drained
        rows = client.store.query_points(job_id=j1)
        assert [r["k"] for r in rows] == [0, 1]
        for row in rows:
            assert (row["tenant"], row["app"], row["preset"]) == (
                "alice", "probe", "tiny")
            assert row["trace_id"] == client.status(j1).trace_id

    def test_slowdown_is_relative_to_the_lowest_k(self, drained):
        client, j1, _ = drained
        points = client.store.query_points(job_id=j1)
        by_k = {p["k"]: p for p in points}
        assert by_k[0]["slowdown"] == pytest.approx(1.0)
        assert by_k[1]["slowdown"] == pytest.approx(
            by_k[1]["t_access_ns"] / by_k[0]["t_access_ns"]
        )
        assert by_k[1]["slowdown"] > 1.0  # interference slows the probe


class TestBackfill:
    def test_backfill_rebuilds_a_deleted_store(self, drained, tmp_path):
        client, j1, j2 = drained
        reference = {
            job_id: client.store.point_payload(job_id)
            for job_id in (j1, j2)
        }
        client.store.close()
        for path in tmp_path.glob("store.sqlite*"):
            path.unlink()
        fresh = ResultsStore(tmp_path)
        assert fresh.backfill(client.broker) == 2
        for job_id in (j1, j2):
            assert fresh.point_payload(job_id) == reference[job_id]

    def test_backfilled_store_gives_the_agent_written_json(self, drained,
                                                           tmp_path):
        client, j1, j2 = drained
        fresh = ResultsStore(tmp_path, path=tmp_path / "fresh.sqlite")
        assert fresh.backfill(client.broker) == 2
        for filters in FILTERS:
            assert (fresh.query_json(**filters)
                    == client.store.query_json(**filters)), filters
        assert client.store.query_json(job_id=j2) != "[]"

    def test_backfill_is_incremental(self, drained, tmp_path):
        client, *_ = drained
        assert client.store.backfill(client.broker) == 0  # nothing missing
        j3 = client.submit(spec(seed=7), tenant="alice")
        client.drain()
        # The agent already recorded j3; a job the store holds is skipped.
        assert client.store.backfill(client.broker) == 0
        # A queued job has no artifact yet and is skipped too.
        client.submit(spec(seed=8), tenant="alice")
        fresh = ResultsStore(tmp_path, path=tmp_path / "fresh.sqlite")
        assert fresh.backfill(client.broker) == 3
        assert fresh.point_payload(j3) == client.store.point_payload(j3)

    def test_backfill_covers_jobs_missing_from_the_store(self, tmp_path):
        # Simulate the crash window: job completed, store write lost.
        client = ServiceClient(tmp_path)
        job_id = client.submit(spec())
        client.drain()
        client.store.close()
        for path in tmp_path.glob("store.sqlite*"):
            path.unlink()
        store = ResultsStore(tmp_path)
        with pytest.raises(ServiceError, match="no point rows"):
            store.point_payload(job_id)
        assert store.backfill(client.broker) == 1
        artifact = Path(client.status(job_id).result_path).read_bytes()
        rebuilt = json.dumps(store.point_payload(job_id),
                             sort_keys=True, indent=1).encode()
        assert rebuilt == artifact

    def test_backfill_torn_artifact_is_a_service_error(self, drained,
                                                       tmp_path):
        client, j1, _ = drained
        artifact = Path(client.status(j1).result_path)
        artifact.write_bytes(artifact.read_bytes()[:-20])
        fresh = ResultsStore(tmp_path, path=tmp_path / "fresh.sqlite")
        with pytest.raises(ServiceError, match="torn or corrupt"):
            fresh.backfill(client.broker)


class TestQueries:
    def test_filter_by_tenant_app_preset(self, drained):
        client, j1, j2 = drained
        assert {r["job_id"] for r in
                client.store.query_points(tenant="alice")} == {j1}
        assert {r["job_id"] for r in
                client.store.query_points(app="stream")} == {j2}
        assert client.store.query_points(preset="xeon20mb") == []

    def test_filter_by_k_range(self, drained):
        client, *_ = drained
        ks = [r["k"] for r in client.store.query_points(k_min=1)]
        assert ks == [1, 1]
        assert client.store.query_points(k_min=2, k_max=5) == []
        both = client.store.query_points(k_min=0, k_max=1)
        assert len(both) == 4

    def test_query_json_is_the_indented_dump_of_query_points(self, drained):
        client, *_ = drained
        for filters in FILTERS:
            assert client.store.query_json(**filters) == json.dumps(
                client.store.query_points(**filters),
                sort_keys=True, indent=1,
            ), filters
        assert client.store.query_json(preset="xeon20mb") == "[]"


class TestSchemaAndConcurrency:
    def test_wal_mode_is_active(self, tmp_path):
        store = ResultsStore(tmp_path)
        mode = store._conn.execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"

    def test_schema_mismatch_fails_loudly(self, tmp_path):
        store = ResultsStore(tmp_path)
        store._conn.execute(
            "UPDATE meta SET value='999' WHERE key='schema'")
        store._conn.commit()
        store.close()
        with pytest.raises(ServiceError, match="schema 999"):
            ResultsStore(tmp_path)

    def test_two_writers_interleave(self, drained, tmp_path):
        # Two store instances (two "agent processes") writing distinct
        # jobs against one WAL database must both land.
        client, j1, j2 = drained
        path = tmp_path / "shared.sqlite"
        a = ResultsStore(tmp_path, path=path)
        b = ResultsStore(tmp_path, path=path)
        a.record_job(client.status(j1), client.result(j1))
        b.record_job(client.status(j2), client.result(j2))
        assert {r["job_id"] for r in a.query_points()} == {j1, j2}

    def test_record_job_is_idempotent(self, drained):
        client, j1, _ = drained
        payload = client.store.point_payload(j1)
        before = client.store.query_points(job_id=j1)
        client.store.record_job(client.broker.job(j1), payload)
        assert client.store.query_points(job_id=j1) == before
