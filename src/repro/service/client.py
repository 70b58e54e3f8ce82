"""Synchronous in-process client for the measurement service.

The smallest way to consume the service: same broker, same journals
and fences as the full supervised fleet, but the "fleet" is one
:class:`~repro.service.agent.MeasurementAgent` running inline in the
caller's process. Useful for tests, notebooks, and the
``service-smoke`` CI job — and it doubles as an executable proof that
the service layers add no behaviour of their own: an inline drain must
produce byte-identical results to a supervised multi-process drain.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..errors import ServiceError
from .agent import MeasurementAgent
from .broker import DONE, DurableBroker, JobRecord
from .jobs import JobSpec
from .store import ResultsStore


class ServiceClient:
    """Submit jobs and drain them synchronously against one root."""

    def __init__(
        self,
        root: str | Path,
        lease_s: float = 30.0,
        retry_budget: int = 3,
    ):
        self.root = Path(root)
        self.broker = DurableBroker(
            self.root, lease_s=lease_s, retry_budget=retry_budget,
        )
        self._store: Optional[ResultsStore] = None

    @property
    def store(self) -> ResultsStore:
        """The root's point index (opened lazily)."""
        if self._store is None:
            self._store = ResultsStore(self.root)
        return self._store

    def submit(
        self,
        spec: JobSpec,
        tenant: str = "anonymous",
        trace_id: Optional[str] = None,
    ) -> str:
        """Durably enqueue one job; returns its id."""
        return self.broker.submit(spec, tenant=tenant, trace_id=trace_id)

    def drain(self, max_jobs: Optional[int] = None) -> int:
        """Run an inline agent until the queue is empty; returns the
        number of jobs it completed."""
        agent = MeasurementAgent(
            self.root, agent_id="inline", broker=self.broker, poll_s=0.01
        )
        return agent.run_forever(max_jobs=max_jobs, exit_when_drained=True)

    def status(self, job_id: str) -> JobRecord:
        job = self.broker.job(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def result(self, job_id: str) -> List[Dict[str, Any]]:
        """The completed job's sweep payload (parsed result artifact).

        A missing or torn artifact surfaces as a
        :class:`~repro.errors.ServiceError` naming the job and the path
        — never a raw ``FileNotFoundError``/``JSONDecodeError`` that
        reads like a client bug instead of what it is: service-side
        state the caller can report or repair.
        """
        job = self.status(job_id)
        if job.state != DONE or not job.result_path:
            raise ServiceError(
                f"job {job_id} has no result yet (state={job.state}"
                + (f", errors={job.errors[-1]!r}" if job.errors else "")
                + ")"
            )
        path = Path(job.result_path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ServiceError(
                f"result artifact for job {job_id} is missing or "
                f"unreadable at {path}: {exc}"
            ) from exc
        try:
            return json.loads(text)
        except ValueError as exc:
            raise ServiceError(
                f"result artifact for job {job_id} at {path} is torn or "
                f"corrupt: {exc}"
            ) from exc

    def wait(self, job_id: str, timeout_s: float = 60.0,
             poll_s: float = 0.05) -> JobRecord:
        """Block until the job leaves the active states (done or dead)."""
        deadline = time.monotonic() + timeout_s
        while True:
            job = self.status(job_id)
            if not job.active:
                return job
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout_s}s waiting for {job_id} "
                    f"(state={job.state})"
                )
            time.sleep(poll_s)
