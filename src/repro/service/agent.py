"""Measurement agent: leases jobs, runs them, survives being killed.

An agent is deliberately *stateless between jobs*: everything that must
survive its death lives in the service root — the broker's event log,
the shared content-addressed :class:`~repro.core.parallel.ResultCache`,
and one crash-safe :class:`~repro.core.journal.CampaignJournal` per job.
SIGKILL an agent mid-campaign and the job's lease expires, the
supervisor requeues it, and whichever agent leases it next rebuilds the
same :class:`~repro.core.ActiveMeasurement` from the declarative spec;
every point the dead agent journaled is served as a journal/cache hit
(counted in the completion telemetry — the chaos drill's dedup proof)
and only the remainder executes. Because per-point seeding makes each
point a pure function of the spec, the final artifact is byte-identical
to an undisturbed run.

While a job runs, a daemon heartbeat thread renews the lease every
``lease_s / 4``. If a renewal comes back :class:`~repro.errors.StaleLease`
— the agent stalled past its deadline and the supervisor already
rearranged the job — the runner's progress hook aborts the campaign at
the next point boundary and the agent abandons the job: its journal
writes so far are harmless (identical bytes under identical keys) and
its completion would be fenced off by the broker anyway.

Runnable as a module (the supervisor spawns exactly this)::

    python -m repro.service.agent --root /path/to/service --agent-id a0
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.journal import CampaignJournal
from ..core.parallel import PointRunner, ResultCache, RunnerTelemetry
from ..errors import ReproError, StaleLease
from ..obs.tracer import bind_trace
from ..obs.tracer import span as trace_span
from .broker import DurableBroker, JobRecord
from .store import ResultsStore


def sweep_payload(sweep) -> List[Dict[str, Any]]:
    """Full-precision, JSON-stable rendering of a sweep (the same field
    set and ``repr`` float discipline as ``scripts/chaos_check.py``, so
    drills can byte-compare service output against a serial run)."""
    return [
        {
            "kind": p.kind,
            "k": p.k,
            "makespan_ns": repr(p.makespan_ns),
            "main_cores": p.main_cores,
            "l3_miss_rates": {str(c): repr(v) for c, v in p.l3_miss_rates.items()},
            "bandwidths_Bps": {str(c): repr(v) for c, v in p.bandwidths_Bps.items()},
            "time_per_access_ns": repr(p.time_per_access_ns),
        }
        for p in sweep.points
    ]


def write_result_atomic(path: Path, payload: Any) -> None:
    """Durable atomic publish: temp file + fsync + ``os.replace`` (the
    :meth:`ResultCache.put` discipline — the name must never point at
    bytes that were not yet durable)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(payload, sort_keys=True, indent=1).encode()
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def traceback_head(exc: BaseException, limit: int = 400) -> str:
    """The failure-reason fragment reported to the broker for an
    *unexpected* exception: the deepest frame plus the exception line,
    flattened to one bounded line — enough to locate the crash from
    ``repro queue`` without shipping a whole traceback into the event
    log."""
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    head = " | ".join(
        part.strip().replace("\n", " | ") for part in lines[-3:] if part.strip()
    )
    return head[:limit]


class _Heartbeat(threading.Thread):
    """Daemon thread renewing one lease until stopped or fenced off."""

    def __init__(self, broker: DurableBroker, job_id: str, agent: str,
                 attempt: int, interval_s: float):
        super().__init__(daemon=True, name=f"heartbeat-{job_id}")
        self.broker = broker
        self.job_id = job_id
        self.agent = agent
        self.attempt = attempt
        self.interval_s = interval_s
        self.stale = threading.Event()
        # Not named _stop: Thread itself owns a private _stop() method.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self.interval_s):
            try:
                self.broker.renew(self.job_id, self.agent, self.attempt)
            except StaleLease:
                self.stale.set()
                return
            except Exception:  # noqa: BLE001 - transient I/O: retry next beat
                continue

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self.interval_s * 4 + 5)


class MeasurementAgent:
    """One worker of the fleet; also usable in-process (tests, the
    synchronous client's inline mode).

    Parameters
    ----------
    root:
        The service root shared with the broker/supervisor.
    agent_id:
        Stable identity used in lease fences and log lines.
    broker:
        Share an existing broker (in-process use); by default the agent
        opens its own against ``root``.
    poll_s:
        Idle sleep between lease attempts when the queue is empty.
    """

    def __init__(
        self,
        root: str | Path,
        agent_id: str,
        broker: Optional[DurableBroker] = None,
        lease_s: float = 30.0,
        retry_budget: int = 3,
        poll_s: float = 0.1,
    ):
        self.root = Path(root)
        self.agent_id = agent_id
        self.broker = broker or DurableBroker(
            self.root, lease_s=lease_s, retry_budget=retry_budget
        )
        self.poll_s = float(poll_s)
        self.cache = ResultCache(self.root / "cache")
        self.store = ResultsStore(self.root)
        self.jobs_run = 0
        self.jobs_abandoned = 0
        #: Jobs that died on an exception *outside* the ReproError
        #: hierarchy — a malformed spec, a library bug. They are
        #: reported to the broker like any failure (the lease must
        #: never dangle until expiry) but counted separately: an
        #: unexpected exception is a bug, not an operational fault.
        self.jobs_crashed = 0
        #: Failed results-store writes (the artifact stays authoritative;
        #: ``repro query --backfill`` repairs the store).
        self.store_errors = 0

    # -- paths ------------------------------------------------------------------

    def journal_path(self, job: JobRecord) -> Path:
        return self.root / "journals" / f"{job.id}.jsonl"

    def result_path(self, job: JobRecord) -> Path:
        return self.root / "results" / f"{job.id}.json"

    # -- execution --------------------------------------------------------------

    def run_job(self, job: JobRecord) -> None:
        """Execute one leased job end-to-end and report to the broker."""
        spec = job.spec
        heartbeat = _Heartbeat(
            self.broker, job.id, self.agent_id, job.attempts,
            interval_s=max(self.broker.lease_s / 4.0, 0.02),
        )

        def progress(done: int, total: int, tele: RunnerTelemetry) -> None:
            # Point boundary: if the supervisor already took the job
            # away, stop burning cycles on a result nobody will accept.
            if heartbeat.stale.is_set():
                raise StaleLease(
                    f"lease on {job.id} was lost mid-campaign "
                    f"({done}/{total} points done); abandoning"
                )

        journal = CampaignJournal(
            self.journal_path(job), config_key=spec.config_key()
        )
        runner = PointRunner(
            backend="serial",
            cache=self.cache,
            journal=journal,
            progress=progress,
            backoff_seed=spec.seed,
        )
        heartbeat.start()
        try:
            with bind_trace(job.trace_id or None), trace_span(
                "service.job", cat="service",
                job=job.id, agent=self.agent_id, attempt=job.attempts,
                trace=job.trace_id,
            ):
                am = spec.build_measurement(runner=runner)
                sweep = am.sweep(spec.kind, spec.ks)
                result = self.result_path(job)
                payload = sweep_payload(sweep)
                write_result_atomic(result, payload)
            tele = runner.last_telemetry
            self.broker.complete(
                job.id, self.agent_id, job.attempts,
                result_path=str(result),
                telemetry=dataclasses.asdict(tele) if tele else {},
            )
            self.jobs_run += 1
            # The point index, written only after the fenced
            # completion was accepted. Derived data: a crash or I/O
            # error here loses nothing ('repro query --backfill'
            # rebuilds the rows from the artifact).
            try:
                self.store.record_job(job, payload)
            except Exception:  # noqa: BLE001 - artifact is authoritative
                self.store_errors += 1
        except StaleLease:
            # Fenced off (mid-run or at completion): the job is someone
            # else's now; nothing to report, nothing was lost.
            self.jobs_abandoned += 1
        except ReproError as exc:
            self._report_failure(job, f"{type(exc).__name__}: {exc}")
        except Exception as exc:  # noqa: BLE001 - see below
            # An exception *outside* the library hierarchy (a malformed
            # spec exploding at build time, a bug in a workload). Before
            # this catch existed the lease dangled until expiry and the
            # reason was lost; now the broker hears about it immediately
            # with the traceback head as the durable failure reason.
            self.jobs_crashed += 1
            self._report_failure(
                job, f"unexpected {type(exc).__name__}: {traceback_head(exc)}"
            )
        finally:
            heartbeat.stop()

    def _report_failure(self, job: JobRecord, reason: str) -> None:
        """Report a failed attempt; a stale fence means the broker has
        already rearranged the job, so the report becomes an abandon."""
        try:
            self.broker.fail(job.id, self.agent_id, job.attempts, reason)
        except StaleLease:
            self.jobs_abandoned += 1

    def run_forever(
        self,
        max_jobs: Optional[int] = None,
        exit_when_drained: bool = False,
        deadline_s: Optional[float] = None,
    ) -> int:
        """Lease-and-run loop; returns the number of jobs completed.

        ``exit_when_drained`` stops the loop once the broker holds no
        queued or leased work (the supervisor's drain mode); otherwise
        the agent idles, polling for new submissions.
        """
        started = time.monotonic()
        done = 0
        while True:
            if max_jobs is not None and done >= max_jobs:
                return done
            if deadline_s is not None and time.monotonic() - started > deadline_s:
                return done
            job = self.broker.lease(self.agent_id)
            if job is None:
                if exit_when_drained and self.broker.drained():
                    return done
                time.sleep(self.poll_s)
                continue
            self.run_job(job)
            done += 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="repro measurement agent (spawned by the supervisor)"
    )
    parser.add_argument("--root", required=True, help="service root directory")
    parser.add_argument("--agent-id", required=True)
    parser.add_argument("--lease-s", type=float, default=30.0)
    parser.add_argument("--retry-budget", type=int, default=3)
    parser.add_argument("--poll-s", type=float, default=0.1)
    parser.add_argument("--max-jobs", type=int, default=None)
    parser.add_argument("--exit-when-drained", action="store_true")
    args = parser.parse_args(argv)

    agent = MeasurementAgent(
        args.root, args.agent_id,
        lease_s=args.lease_s, retry_budget=args.retry_budget,
        poll_s=args.poll_s,
    )
    n = agent.run_forever(
        max_jobs=args.max_jobs, exit_when_drained=args.exit_when_drained
    )
    print(f"agent {args.agent_id}: {n} jobs completed, "
          f"{agent.jobs_abandoned} abandoned, "
          f"{agent.jobs_crashed} crashed", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
