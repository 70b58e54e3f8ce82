"""Fault-tolerant measurement service (``repro.service``).

Turns the single-process campaign stack (:class:`~repro.core.parallel.PointRunner`
+ :class:`~repro.core.journal.CampaignJournal` +
:class:`~repro.core.parallel.ResultCache`) into a supervised service:

- :mod:`~repro.service.jobs` — declarative :class:`JobSpec` submissions
  (app profile + socket preset + sweep spec, pure data).
- :mod:`~repro.service.broker` — :class:`DurableBroker`, the append-only
  event-log queue with lease/heartbeat/fencing semantics and a
  dead-letter state for poisoned jobs.
- :mod:`~repro.service.agent` — :class:`MeasurementAgent`, the stateless
  worker that resumes requeued jobs from their journals (exactly-once
  results via content-addressed keys).
- :mod:`~repro.service.supervisor` — :class:`Supervisor`, lease policing
  plus fleet restarts.
- :mod:`~repro.service.client` — :class:`ServiceClient`, the synchronous
  in-process consumer.
- :mod:`~repro.service.store` — :class:`ResultsStore`, the SQLite (WAL)
  point index of the per-job artifacts behind ``repro query``.

Wire-in points: ``repro submit`` / ``repro serve`` / ``repro queue`` /
``repro query`` in the CLI, the ``service-smoke`` and chaos CI jobs, and
``scripts/service_chaos_check.py`` for the SIGKILL drill.
"""

from .agent import MeasurementAgent
from .broker import DEAD, DONE, LEASED, QUEUED, DurableBroker, JobRecord
from .client import ServiceClient
from .jobs import APP_PROFILES, PRESETS, JobSpec
from .store import STORE_SCHEMA, ResultsStore
from .supervisor import AgentHandle, Supervisor

__all__ = [
    "MeasurementAgent",
    "DurableBroker",
    "JobRecord",
    "QUEUED",
    "LEASED",
    "DONE",
    "DEAD",
    "ServiceClient",
    "JobSpec",
    "APP_PROFILES",
    "PRESETS",
    "ResultsStore",
    "STORE_SCHEMA",
    "AgentHandle",
    "Supervisor",
]
