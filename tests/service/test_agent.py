"""Agents: exactly-once results, journal resume, stale-lease abandon."""

import json
from pathlib import Path

import pytest

from repro.core.journal import CampaignJournal
from repro.core.parallel import PointRunner, ResultCache
from repro.service import (
    DEAD,
    DONE,
    LEASED,
    QUEUED,
    DurableBroker,
    JobSpec,
    MeasurementAgent,
    ServiceClient,
)
from repro.service.agent import (
    sweep_payload,
    traceback_head,
    write_result_atomic,
)
from repro.service.jobs import APP_PROFILES


def spec(ks=(0, 1), seed=0, app="probe"):
    return JobSpec(app=app, preset="tiny", kind="cs", ks=ks, seed=seed,
                   warmup_accesses=2_000, measure_accesses=1_000)


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def executed_points(telemetry):
    """Points that actually ran side effects (everything not served
    from the journal or the cache)."""
    return (telemetry["points_done"] - telemetry["journal_hits"]
            - telemetry["cache_hits"])


class TestExactlyOnce:
    def test_drain_completes_and_results_match_serial(self, tmp_path):
        client = ServiceClient(tmp_path)
        job_id = client.submit(spec())
        assert client.drain() == 1
        job = client.status(job_id)
        assert job.state == DONE
        reference = sweep_payload(
            spec().build_measurement().sweep("cs", (0, 1))
        )
        assert client.result(job_id) == reference

    def test_duplicate_spec_is_served_entirely_from_cache(self, tmp_path):
        client = ServiceClient(tmp_path)
        first = client.submit(spec(), tenant="t1")
        second = client.submit(spec(), tenant="t2")
        client.drain()
        tele1 = client.status(first).telemetry
        tele2 = client.status(second).telemetry
        assert executed_points(tele1) == 2  # measured once...
        assert executed_points(tele2) == 0  # ...never again
        assert tele2["cache_hits"] + tele2["journal_hits"] == 2
        assert (Path(client.status(first).result_path).read_bytes()
                == Path(client.status(second).result_path).read_bytes())


class TestResume:
    def test_requeued_job_resumes_from_the_dead_agents_journal(
        self, tmp_path
    ):
        clock = FakeClock()
        broker = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        job_id = broker.submit(spec(ks=(0, 1, 2, 3)))
        leased = broker.lease("dead0")
        assert leased.state == LEASED

        # The doomed agent durably journals two points, then is SIGKILLed
        # (simulated: its journal survives, its process state does not).
        dead_agent = MeasurementAgent(tmp_path, "dead0", broker=broker)
        journal = CampaignJournal(
            dead_agent.journal_path(leased),
            config_key=leased.spec.config_key(),
        )
        runner = PointRunner(cache=dead_agent.cache, journal=journal)
        leased.spec.build_measurement(runner=runner).sweep("cs", (0, 1))
        assert len(journal) == 2

        clock.advance(11.0)
        assert broker.requeue_expired() == [(job_id, "queued")]
        clock.advance(60.0)  # clear the backoff gate

        # A replacement agent drains: it must resume, not re-measure.
        agent = MeasurementAgent(tmp_path, "a1", broker=broker)
        assert agent.run_forever(exit_when_drained=True) == 1
        job = broker.job(job_id)
        assert job.state == DONE
        assert job.attempts == 2
        assert job.telemetry["journal_hits"] >= 2
        assert executed_points(job.telemetry) == 2  # only the remainder

        reference = sweep_payload(
            spec(ks=(0, 1, 2, 3)).build_measurement().sweep("cs", (0, 1, 2, 3))
        )
        assert json.loads(Path(job.result_path).read_text()) == reference


class TestStaleLease:
    def test_superseded_attempt_is_abandoned_not_completed(self, tmp_path):
        clock = FakeClock()
        broker = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        job_id = broker.submit(spec())
        stale = broker.lease("zombie")
        clock.advance(11.0)
        broker.requeue_expired()
        clock.advance(60.0)
        current = broker.lease("a1")
        assert (current.agent, current.attempts) == ("a1", 2)

        # The zombie finishes its work anyway; the fence refuses it.
        zombie = MeasurementAgent(tmp_path, "zombie", broker=broker)
        zombie.run_job(stale)
        assert zombie.jobs_abandoned == 1
        assert zombie.jobs_run == 0
        job = broker.job(job_id)
        assert job.state == LEASED
        assert job.agent == "a1"


def _bomb_builder(params):
    # Explodes at build time with an exception *outside* the ReproError
    # hierarchy — the regression case for the dangling-lease bug.
    raise KeyError("tuning table entry missing")


@pytest.fixture
def bomb_app(monkeypatch):
    monkeypatch.setitem(APP_PROFILES, "bomb", _bomb_builder)


class TestUnexpectedCrash:
    def test_build_time_explosion_reports_fail_not_dangle(
        self, tmp_path, bomb_app
    ):
        clock = FakeClock()
        broker = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        job_id = broker.submit(spec(app="bomb"))
        agent = MeasurementAgent(tmp_path, "a0", broker=broker)
        agent.run_job(broker.lease("a0"))

        # Counted as a crash (a bug), not as a completion or an abandon.
        assert agent.jobs_crashed == 1
        assert agent.jobs_run == 0
        assert agent.jobs_abandoned == 0

        # The broker heard about it immediately: the job is requeued
        # with the crash reason, NOT left leased until lease expiry.
        record = broker.job(job_id)
        assert record.state == QUEUED
        assert record.agent is None
        assert "unexpected KeyError" in record.errors[-1]
        assert "tuning table entry missing" in record.errors[-1]

        # And it is re-leasable as soon as its backoff passes — no
        # dangling lease holding it hostage for lease_s.
        clock.advance(60.0)
        assert broker.lease("a1").id == job_id

    def test_repeated_crashes_dead_letter_as_retries(
        self, tmp_path, bomb_app
    ):
        clock = FakeClock()
        broker = DurableBroker(tmp_path, lease_s=10.0, retry_budget=3,
                               clock=clock)
        job_id = broker.submit(spec(app="bomb"))
        agent = MeasurementAgent(tmp_path, "a0", broker=broker)
        for _ in range(3):
            job = broker.lease("a0")
            assert job is not None
            agent.run_job(job)
            clock.advance(120.0)  # clear the requeue backoff
        record = broker.job(job_id)
        assert record.state == DEAD
        assert "unexpected KeyError" in record.errors[-1]
        assert agent.jobs_crashed == 3
        assert broker.lease("a1") is None

    def test_traceback_head_is_one_bounded_line(self):
        try:
            raise KeyError("boom")
        except KeyError as exc:
            head = traceback_head(exc)
            truncated = traceback_head(exc, limit=20)
        assert "\n" not in head
        assert "KeyError" in head
        assert "boom" in head
        assert len(truncated) == 20  # the bound holds


class TestResultArtifact:
    def test_write_result_atomic_replaces_durably(self, tmp_path, monkeypatch):
        import os as os_mod

        calls = []
        real_fsync, real_replace = os_mod.fsync, os_mod.replace
        monkeypatch.setattr(
            "os.fsync", lambda fd: (calls.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            "os.replace",
            lambda a, b: (calls.append("replace"), real_replace(a, b))[1],
        )
        target = tmp_path / "out" / "r.json"
        write_result_atomic(target, {"x": 1})
        assert json.loads(target.read_text()) == {"x": 1}
        assert calls == ["fsync", "replace"]
        assert not list(target.parent.glob("*.tmp"))

    def test_failed_write_leaves_no_droppings(self, tmp_path, monkeypatch):
        def boom(a, b):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", boom)
        target = tmp_path / "r.json"
        with pytest.raises(OSError):
            write_result_atomic(target, {"x": 1})
        assert not target.exists()
        assert not list(tmp_path.glob("*.tmp"))
