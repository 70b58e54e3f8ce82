"""Durable broker: lease lifecycle, fencing, scheduling, recovery."""

import json

import pytest

from repro.core.parallel import backoff_delay
from repro.errors import ServiceError, StaleLease
from repro.service import DEAD, DONE, LEASED, QUEUED, DurableBroker, JobSpec


def spec(k=1, seed=0, **overrides):
    base = dict(app="probe", preset="tiny", kind="cs", ks=(0, k),
                seed=seed, warmup_accesses=2_000, measure_accesses=1_000)
    base.update(overrides)
    return JobSpec(**base)


class FakeClock:
    def __init__(self, t=1000.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def broker(tmp_path, clock):
    return DurableBroker(tmp_path, lease_s=10.0, retry_budget=3,
                         clock=clock)


class TestLifecycle:
    def test_submit_lease_complete(self, broker):
        job_id = broker.submit(spec(), tenant="t1")
        job = broker.lease("a0")
        assert job.id == job_id
        assert job.state == LEASED
        assert job.attempts == 1
        broker.complete(job_id, "a0", 1, result_path="r.json",
                        telemetry={"points_done": 2})
        done = broker.job(job_id)
        assert done.state == DONE
        assert done.result_path == "r.json"
        assert done.telemetry["points_done"] == 2
        assert broker.drained()

    def test_lease_is_fifo_over_submission_order(self, broker):
        first = broker.submit(spec(1))
        second = broker.submit(spec(2))
        assert broker.lease("a0").id == first
        assert broker.lease("a1").id == second
        assert broker.lease("a2") is None

    def test_renew_extends_the_deadline(self, broker, clock):
        job_id = broker.submit(spec())
        job = broker.lease("a0")
        first_deadline = job.deadline
        clock.advance(5.0)
        new_deadline = broker.renew(job_id, "a0", 1)
        assert new_deadline == pytest.approx(first_deadline + 5.0)

    def test_ids_embed_the_spec_fingerprint(self, broker):
        job_id = broker.submit(spec())
        assert job_id.startswith("j00000-")
        assert spec().config_key().startswith(job_id.split("-", 1)[1])


class TestFencing:
    def test_stale_agent_cannot_renew_or_complete(self, broker, clock):
        job_id = broker.submit(spec())
        broker.lease("a0")
        clock.advance(11.0)  # past the 10s lease
        assert broker.requeue_expired() == [(job_id, QUEUED)]
        clock.advance(60.0)  # clear the requeue backoff
        job = broker.lease("a1")
        assert (job.agent, job.attempts) == ("a1", 2)
        with pytest.raises(StaleLease):
            broker.renew(job_id, "a0", 1)
        with pytest.raises(StaleLease):
            broker.complete(job_id, "a0", 1)
        # The rightful holder is unaffected.
        broker.complete(job_id, "a1", 2)
        assert broker.job(job_id).state == DONE

    def test_double_complete_is_fenced(self, broker):
        job_id = broker.submit(spec())
        broker.lease("a0")
        broker.complete(job_id, "a0", 1)
        with pytest.raises(StaleLease):
            broker.complete(job_id, "a0", 1)

    def test_unknown_job_raises(self, broker):
        with pytest.raises(ServiceError, match="unknown job"):
            broker.renew("j99999-deadbeef", "a0", 1)


class TestRequeueAndDeadLetter:
    def test_expired_lease_requeues_with_deterministic_backoff(
        self, broker, clock
    ):
        job_id = broker.submit(spec())
        broker.lease("a0")
        clock.advance(11.0)
        broker.requeue_expired()
        job = broker.job(job_id)
        assert job.state == QUEUED
        assert job.failures == 1
        expected = backoff_delay(0, job_id, 0, 0.25, 30.0)
        assert job.not_before == pytest.approx(clock.t + expected)
        # Not leasable until the backoff passes.
        assert broker.lease("a1") is None
        clock.advance(expected + 0.01)
        assert broker.lease("a1").id == job_id

    def test_reported_failure_requeues_with_the_error(self, broker, clock):
        job_id = broker.submit(spec())
        broker.lease("a0")
        assert broker.fail(job_id, "a0", 1, "boom") == QUEUED
        job = broker.job(job_id)
        assert job.state == QUEUED
        assert "boom" in job.errors[-1]

    def test_poison_job_routes_to_dead_letter(self, broker, clock):
        job_id = broker.submit(spec())
        for _ in range(2):
            broker.lease("a0")
            clock.advance(11.0)
            broker.requeue_expired()
            clock.advance(60.0)
        broker.lease("a0")
        clock.advance(11.0)
        assert broker.requeue_expired() == [(job_id, DEAD)]
        job = broker.job(job_id)
        assert job.state == DEAD
        assert not job.active
        assert broker.dead_letter()[0].id == job_id
        assert broker.drained()  # dead jobs do not block the drain
        assert broker.lease("a1") is None

    def test_completion_resets_the_poison_counter(self, broker, clock):
        job_id = broker.submit(spec())
        broker.lease("a0")
        broker.fail(job_id, "a0", 1, "transient")
        clock.advance(60.0)
        job = broker.lease("a1")
        broker.complete(job_id, "a1", job.attempts)
        assert broker.job(job_id).failures == 0


class TestDurability:
    def test_state_survives_reopen(self, tmp_path, clock):
        first = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        job_id = first.submit(spec(), tenant="t1")
        first.lease("a0")
        # A brand-new instance replays the log to the same state.
        second = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        job = second.job(job_id)
        assert job.state == LEASED
        assert job.agent == "a0"
        assert job.tenant == "t1"
        assert job.spec == spec()

    def test_two_instances_see_each_others_writes(self, tmp_path, clock):
        a = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        b = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        job_id = a.submit(spec())
        job = b.lease("b0")  # b syncs and leases a's submission
        assert job.id == job_id
        assert a.job(job_id).state == LEASED  # a syncs b's lease

    def test_torn_trailing_line_is_repaired(self, tmp_path, clock):
        broker = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        job_id = broker.submit(spec())
        broker.submit(spec(2))
        # Simulate a writer killed mid-append: chop the final line.
        log = tmp_path / "queue.jsonl"
        log.write_bytes(log.read_bytes()[:-10])
        fresh = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        assert fresh.repaired_lines == 1
        # The torn submit never became durable; the intact one survived.
        assert [j.id for j in fresh.jobs()] == [job_id]
        # And the log is appendable again: the next event lands intact.
        fresh.lease("a0")
        lines = log.read_bytes().splitlines()
        assert json.loads(lines[-1])["event"] == "lease"

    def test_lease_grants_survive_crash_of_the_broker_process(
        self, tmp_path, clock
    ):
        broker = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        job_id = broker.submit(spec())
        broker.lease("a0")
        clock.advance(11.0)
        # "Crash": drop the instance; the supervisor's fresh broker
        # still sees the expired lease and requeues it.
        fresh = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        assert fresh.requeue_expired() == [(job_id, QUEUED)]

    def test_format2_log_replays_with_dropped_fields_ignored(
        self, tmp_path, clock
    ):
        # A queue written before format 3: an admission policy in the
        # config record, and submit events carrying a priority, an
        # absolute deadline (already past at replay time) and the
        # scheduling knobs inside the spec.
        def old_spec(seed, priority, deadline_s):
            return {"app": "probe", "app_params": {}, "kind": "cs",
                    "ks": [0, 1], "measure_accesses": 1000,
                    "preset": "tiny", "seed": seed,
                    "warmup_accesses": 2000, "priority": priority,
                    "deadline_s": deadline_s}

        events = [
            {"event": "config", "format": 2, "lease_s": 30.0,
             "retry_budget": 3,
             "admission": {"max_active": 2, "max_active_per_tenant": 2}},
            {"event": "submit", "id": "j00000-154b2698", "tenant": "t1",
             "spec": old_spec(0, 0, 500.0), "priority": 0,
             "deadline_at": 500.0, "trace": "a" * 16, "t": 0.0},
            {"event": "submit", "id": "j00001-10de28bd", "tenant": "t1",
             "spec": old_spec(1, 5, None), "priority": 5,
             "trace": "b" * 16, "t": 0.0},
        ]
        (tmp_path / "queue.jsonl").write_text(
            "".join(json.dumps(e, sort_keys=True) + "\n" for e in events))
        broker = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        jobs = broker.jobs()
        assert [j.id for j in jobs] == ["j00000-154b2698", "j00001-10de28bd"]
        assert jobs[0].spec == spec(seed=0)
        assert jobs[1].trace_id == "b" * 16
        # Two jobs already in flight: the old bound of 2 is gone.
        newest = broker.submit(spec(seed=2), tenant="t1")
        assert newest.startswith("j00002-")
        # The old deadline and priority no longer reorder or expire.
        order = [broker.lease(f"a{i}").id for i in range(3)]
        assert order == ["j00000-154b2698", "j00001-10de28bd", newest]


class TestScheduling:
    def test_backoff_gates_priority(self, broker, clock):
        # Submission order is the only dispatch order, and the requeue
        # backoff gates it: a job inside its window is skipped for the
        # next queued job, and once the window passes it is served
        # before every job submitted after it.
        first = broker.submit(spec(seed=0))
        second = broker.submit(spec(seed=1))
        third = broker.submit(spec(seed=2))
        assert broker.lease("a0").id == first
        broker.fail(first, "a0", 1, "transient")
        delay = backoff_delay(0, first, 0, 0.25, 30.0)
        assert broker.lease("a1").id == second  # first is gated by backoff
        clock.advance(delay + 0.01)
        assert broker.lease("a2").id == first  # eligibility restored
        assert broker.lease("a3").id == third


class TestTraceIds:
    def test_submit_mints_a_trace_id(self, broker):
        job_id = broker.submit(spec())
        trace = broker.job(job_id).trace_id
        assert len(trace) == 16
        assert all(c in "0123456789abcdef" for c in trace)

    def test_caller_supplied_trace_id_is_kept(self, broker):
        job_id = broker.submit(spec(), trace_id="cafecafecafecafe")
        assert broker.job(job_id).trace_id == "cafecafecafecafe"

    def test_trace_id_rides_every_event(self, broker, tmp_path, clock):
        job_id = broker.submit(spec(), trace_id="feedfeedfeedfeed")
        job = broker.lease("a0")
        broker.renew(job_id, "a0", job.attempts)
        broker.complete(job_id, "a0", job.attempts,
                        result_path="r.json")
        events = [json.loads(line) for line in
                  (tmp_path / "queue.jsonl").read_text().splitlines()]
        stamped = [e for e in events if e["event"] != "config"]
        assert [e["event"] for e in stamped] == [
            "submit", "lease", "renew", "complete",
        ]
        assert all(e["trace"] == "feedfeedfeedfeed" for e in stamped)

    def test_trace_id_survives_replay(self, tmp_path, clock):
        first = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        job_id = first.submit(spec(), trace_id="beefbeefbeefbeef")
        second = DurableBroker(tmp_path, lease_s=10.0, clock=clock)
        assert second.job(job_id).trace_id == "beefbeefbeefbeef"
