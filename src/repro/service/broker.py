"""Durable work queue with lease semantics — the service's spine.

Every state transition of every job is one atomic append to a JSONL
event log (``queue.jsonl``), written with the same single-write + flush
+ fsync discipline as :mod:`repro.core.journal`. Broker state is *only*
what replaying that log yields, so a SIGKILL at any instant — of an
agent, the supervisor, or a submitter — loses at most one torn trailing
line (repaired via :func:`~repro.core.journal.truncate_torn_tail` on
the next access) and never a durable transition. No submitted job can
be lost: it is either still queued, leased with a deadline the
supervisor polices, done, or parked in the dead-letter state with its
error history.

Concurrency: agents, supervisor and submitters are separate processes
sharing the log. Every operation runs under an exclusive ``flock`` on a
sidecar lock file and starts by *syncing* — reading any lines appended
by other processes since the last look — so each process's in-memory
view is rebuilt from the shared truth before it writes.

Lease protocol (the exactly-once backbone, DESIGN.md decision 14):

- :meth:`DurableBroker.lease` grants the first queued job in submission
  order whose requeue backoff has passed to an agent with a deadline;
  the grant is fenced by ``(agent, attempt)``.
- The agent heartbeats via :meth:`renew`; a renew/complete/fail carrying
  a stale fence (the lease expired and the job was re-leased) raises
  :class:`~repro.errors.StaleLease` — the zombie's result is refused.
- The supervisor calls :meth:`requeue_expired`; an expired lease is
  requeued with the runner's deterministic backoff jitter, or — after
  ``retry_budget`` consecutive agent deaths — routed to the dead-letter
  state so a poisoned job cannot grind the fleet forever.

Duplicate *results* are impossible even when duplicate *execution*
happens (a zombie agent past its deadline racing its replacement):
measurements are pure functions of the spec, both writers produce
byte-identical cache entries under content-addressed keys, and only the
fence-holding attempt's completion is accepted.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

try:  # POSIX file locking; the service is Linux-first like the CI.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..core.journal import append_jsonl, truncate_torn_tail
from ..core.parallel import backoff_delay
from ..errors import ServiceError, StaleLease
from ..obs.tracer import span as trace_span
from .jobs import JobSpec

#: Bump when the queue-log event layout changes. Format 3 dropped the
#: admission policy, priorities and deadlines; older logs replay with
#: those fields ignored.
QUEUE_FORMAT = 3

#: Job states.
QUEUED, LEASED, DONE, DEAD = "queued", "leased", "done", "dead"
ACTIVE_STATES = (QUEUED, LEASED)


@dataclass
class JobRecord:
    """One job's replayed state (never persisted directly — the event
    log is the source of truth, this is its fold)."""

    id: str
    spec: JobSpec
    tenant: str
    state: str = QUEUED
    #: Leases granted so far (the current lease's fence when LEASED).
    attempts: int = 0
    #: Requeues since the last successful completion — the poison
    #: counter that routes a job to the dead-letter state.
    failures: int = 0
    agent: Optional[str] = None
    deadline: float = 0.0
    #: Requeue backoff gate: not leased again before this time.
    not_before: float = 0.0
    submitted_at: float = 0.0
    #: Most recent error strings, newest last (bounded).
    errors: List[str] = field(default_factory=list)
    result_path: Optional[str] = None
    telemetry: Dict[str, Any] = field(default_factory=dict)
    #: Per-submission correlation id threaded through every event and
    #: every ``repro.obs`` span the job touches.
    trace_id: str = ""

    @property
    def active(self) -> bool:
        return self.state in ACTIVE_STATES


class DurableBroker:
    """The shared, crash-tolerant job queue rooted at a directory.

    Parameters
    ----------
    root:
        Service root directory; holds ``queue.jsonl`` + ``queue.lock``
        (agents put caches/journals/results in sibling subdirectories).
    lease_s:
        Lease duration granted per :meth:`lease`/:meth:`renew`.
    retry_budget:
        Consecutive failed/expired attempts before a job is routed to
        the dead-letter state.
    backoff_s / max_backoff_s / backoff_seed:
        Requeue backoff schedule (the runner's deterministic jitter).
    clock:
        Injectable time source (tests); defaults to ``time.time`` —
        wall clock, because deadlines cross process boundaries.
    """

    def __init__(
        self,
        root: str | Path,
        lease_s: float = 30.0,
        retry_budget: int = 3,
        backoff_s: float = 0.25,
        max_backoff_s: float = 30.0,
        backoff_seed: int = 0,
        clock: Callable[[], float] = time.time,
    ):
        if lease_s <= 0:
            raise ServiceError("lease_s must be positive")
        if retry_budget < 1:
            raise ServiceError("retry_budget must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.queue_path = self.root / "queue.jsonl"
        self.lock_path = self.root / "queue.lock"
        self.lease_s = float(lease_s)
        self.retry_budget = int(retry_budget)
        self.backoff_s = float(backoff_s)
        self.max_backoff_s = float(max_backoff_s)
        self.backoff_seed = int(backoff_seed)
        self.clock = clock
        self._jobs: Dict[str, JobRecord] = {}
        self._order: List[str] = []  # submission order (FIFO dispatch)
        self._offset = 0  # bytes of the log already folded into _jobs
        # Serialises threads *within* this process (an agent heartbeats
        # from a background thread); flock covers cross-process races
        # but is undefined across two fds of one process.
        self._tlock = threading.RLock()
        self._submits = 0
        #: Torn trailing lines repaired during syncs (observability).
        self.repaired_lines = 0
        with self._locked():
            if not self.queue_path.exists() or self._offset == 0:
                self._ensure_config()

    # -- locking & sync ---------------------------------------------------------

    @contextmanager
    def _locked(self) -> Iterator[None]:
        """Exclusive cross-process lock + state sync.

        Every public operation runs inside this: take the flock, repair
        a torn tail if a writer died mid-append, fold any lines other
        processes appended since our last look, then let the operation
        read/append against the up-to-date view.
        """
        with self._tlock, open(self.lock_path, "a+b") as lockf:
            if fcntl is not None:
                fcntl.flock(lockf.fileno(), fcntl.LOCK_EX)
            try:
                self._sync()
                yield
            finally:
                if fcntl is not None:
                    fcntl.flock(lockf.fileno(), fcntl.LOCK_UN)

    def _sync(self) -> None:
        if truncate_torn_tail(self.queue_path):
            self.repaired_lines += 1
        try:
            size = self.queue_path.stat().st_size
        except OSError:
            size = 0
        if size < self._offset:
            # The log shrank (cleared externally): full replay.
            self._jobs.clear()
            self._order.clear()
            self._submits = 0
            self._offset = 0
        if size == self._offset:
            return
        with open(self.queue_path, "rb") as fh:
            fh.seek(self._offset)
            data = fh.read()
        for line in data.splitlines():
            if not line.strip():
                continue
            try:
                event = json.loads(line.decode())
            except (ValueError, UnicodeDecodeError):
                continue  # unreachable post-repair; belt and braces
            if isinstance(event, dict):
                self._apply(event)
        self._offset += len(data)

    def _append(self, event: Dict[str, Any]) -> None:
        """Durably append one event and fold it into the local view."""
        append_jsonl(self.queue_path, event)
        self._apply(event)
        self._offset = self.queue_path.stat().st_size

    # -- event fold -------------------------------------------------------------

    def _apply(self, event: Dict[str, Any]) -> None:
        kind = event.get("event")
        job_id = event.get("id")
        if kind == "submit":
            self._submits += 1
            try:
                spec = JobSpec.from_dict(event.get("spec", {}))
            except ServiceError:
                return  # malformed durable spec: unreplayable, skip
            if job_id and job_id not in self._jobs:
                self._jobs[job_id] = JobRecord(
                    id=job_id,
                    spec=spec,
                    tenant=str(event.get("tenant", "anonymous")),
                    submitted_at=float(event.get("t", 0.0)),
                    trace_id=str(event.get("trace", "")),
                )
                self._order.append(job_id)
            return
        job = self._jobs.get(job_id) if job_id else None
        if job is None:
            return  # also the ``config`` record: nothing to fold
        if kind == "lease":
            job.state = LEASED
            job.attempts = int(event.get("attempt", job.attempts + 1))
            job.agent = event.get("agent")
            job.deadline = float(event.get("deadline", 0.0))
        elif kind == "renew":
            job.deadline = float(event.get("deadline", job.deadline))
        elif kind == "complete":
            job.state = DONE
            job.result_path = event.get("result")
            job.telemetry = dict(event.get("telemetry", {}))
            job.failures = 0
            job.agent = None
        elif kind == "requeue":
            job.state = QUEUED
            job.failures += 1
            job.agent = None
            job.deadline = 0.0
            job.not_before = float(event.get("not_before", 0.0))
            error = event.get("error")
            if error:
                job.errors = (job.errors + [str(error)])[-8:]
        elif kind == "dead":
            job.state = DEAD
            job.failures += 1
            job.agent = None
            error = event.get("error")
            if error:
                job.errors = (job.errors + [str(error)])[-8:]

    def _ensure_config(self) -> None:
        # Only the queue creator writes the config record.
        if self.queue_path.exists() and self.queue_path.stat().st_size > 0:
            return
        self._append({
            "event": "config",
            "format": QUEUE_FORMAT,
            "lease_s": self.lease_s,
            "retry_budget": self.retry_budget,
        })

    # -- fencing ----------------------------------------------------------------

    def _fenced(self, job_id: str, agent: str, attempt: int) -> JobRecord:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        if job.state != LEASED or job.agent != agent or job.attempts != attempt:
            raise StaleLease(
                f"job {job_id} is not leased to {agent!r} at attempt "
                f"{attempt} (state={job.state}, holder={job.agent!r}, "
                f"attempt={job.attempts}); abandon it — the broker has "
                "rearranged its execution"
            )
        return job

    # -- public API -------------------------------------------------------------

    def submit(
        self,
        spec: JobSpec,
        tenant: str = "anonymous",
        trace_id: Optional[str] = None,
    ) -> str:
        """Durably enqueue one job; returns its id.

        ``trace_id`` is the per-submission correlation id stamped on
        every subsequent event and span the job touches; one is minted
        when the caller does not bring their own.
        """
        with self._locked():
            trace_id = trace_id or uuid.uuid4().hex[:16]
            with trace_span("service.submit", cat="service", tenant=tenant,
                            trace=trace_id):
                job_id = f"j{self._submits:05d}-{spec.config_key()[:8]}"
                self._append({
                    "event": "submit",
                    "id": job_id,
                    "tenant": tenant,
                    "spec": spec.to_dict(),
                    "trace": trace_id,
                    "t": self.clock(),
                })
            return job_id

    def lease(self, agent: str) -> Optional[JobRecord]:
        """Grant the first queued job in submission order whose requeue
        backoff has passed to ``agent`` with a fresh deadline; ``None``
        when nothing is leasable right now."""
        with self._locked():
            now = self.clock()
            for job_id in self._order:
                job = self._jobs[job_id]
                if job.state == QUEUED and job.not_before <= now:
                    break
            else:
                return None
            attempt = job.attempts + 1
            deadline = now + self.lease_s
            with trace_span(
                "service.lease", cat="service",
                job=job.id, agent=agent, attempt=attempt,
                trace=job.trace_id,
            ):
                self._append({
                    "event": "lease",
                    "id": job.id,
                    "agent": agent,
                    "attempt": attempt,
                    "deadline": deadline,
                    "trace": job.trace_id,
                    "t": now,
                })
            return job

    def renew(self, job_id: str, agent: str, attempt: int) -> float:
        """Heartbeat: extend the lease; returns the new deadline.
        Raises :class:`StaleLease` when the fence no longer holds."""
        with self._locked():
            job = self._fenced(job_id, agent, attempt)
            deadline = self.clock() + self.lease_s
            self._append({
                "event": "renew",
                "id": job_id,
                "agent": agent,
                "attempt": attempt,
                "deadline": deadline,
                "trace": job.trace_id,
            })
            return deadline

    def complete(
        self,
        job_id: str,
        agent: str,
        attempt: int,
        result_path: Optional[str] = None,
        telemetry: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Durably record the fenced attempt's completion."""
        with self._locked():
            job = self._fenced(job_id, agent, attempt)
            with trace_span("service.complete", cat="service", job=job_id,
                            agent=agent, trace=job.trace_id):
                self._append({
                    "event": "complete",
                    "id": job_id,
                    "agent": agent,
                    "attempt": attempt,
                    "result": result_path,
                    "telemetry": dict(telemetry or {}),
                    "trace": job.trace_id,
                    "t": self.clock(),
                })

    def fail(self, job_id: str, agent: str, attempt: int, error: str) -> str:
        """An agent reports a failed attempt; the job is requeued with
        backoff or dead-lettered past the retry budget. Returns the
        job's new state."""
        with self._locked():
            job = self._fenced(job_id, agent, attempt)
            return self._retire_attempt(job, f"agent {agent}: {error}")

    def requeue_expired(self) -> List[Tuple[str, str]]:
        """Supervisor sweep: every leased job whose lease deadline
        passed (missed heartbeats — the agent is presumed dead) is
        requeued or dead-lettered. Returns ``[(job_id, new_state), ...]``."""
        with self._locked():
            now = self.clock()
            moved: List[Tuple[str, str]] = []
            for job in self._jobs.values():
                if job.state == LEASED and job.deadline < now:
                    state = self._retire_attempt(
                        job,
                        f"lease expired (agent {job.agent!r} missed "
                        "heartbeats)",
                    )
                    moved.append((job.id, state))
            return moved

    def _retire_attempt(self, job: JobRecord, error: str) -> str:
        """Shared requeue-or-dead decision for failures and expiries."""
        now = self.clock()
        if job.failures + 1 >= self.retry_budget:
            with trace_span("service.dead", cat="service", job=job.id,
                            trace=job.trace_id):
                self._append({
                    "event": "dead",
                    "id": job.id,
                    "error": error,
                    "attempts": job.attempts,
                    "trace": job.trace_id,
                    "t": now,
                })
            return DEAD
        delay = backoff_delay(
            self.backoff_seed, job.id, job.failures,
            self.backoff_s, self.max_backoff_s,
        )
        with trace_span("service.requeue", cat="service", job=job.id,
                        trace=job.trace_id):
            self._append({
                "event": "requeue",
                "id": job.id,
                "error": error,
                "not_before": now + delay,
                "trace": job.trace_id,
                "t": now,
            })
        return QUEUED

    # -- queries ----------------------------------------------------------------

    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._locked():
            return self._jobs.get(job_id)

    def jobs(self) -> List[JobRecord]:
        """All jobs in submission order (fresh view)."""
        with self._locked():
            return [self._jobs[j] for j in self._order]

    def dead_letter(self) -> List[JobRecord]:
        """Poisoned jobs parked for operator inspection."""
        return [j for j in self.jobs() if j.state == DEAD]

    def drained(self) -> bool:
        """True when no job is queued or leased (all done or dead)."""
        with self._locked():
            return not any(j.active for j in self._jobs.values())

    def stats(self) -> Dict[str, Any]:
        with self._locked():
            by_state: Dict[str, int] = {}
            for j in self._jobs.values():
                by_state[j.state] = by_state.get(j.state, 0) + 1
            return {
                "jobs": len(self._jobs),
                "by_state": by_state,
                "repaired_lines": self.repaired_lines,
            }
