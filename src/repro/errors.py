"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError` so
applications can catch library failures without masking programming
errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError, ValueError):
    """An invalid machine/experiment configuration was supplied."""


class SimulationError(ReproError, RuntimeError):
    """The execution engine reached an inconsistent state."""


class AllocationError(ReproError, MemoryError):
    """The simulated address space could not satisfy an allocation."""


class MeasurementError(ReproError, RuntimeError):
    """An Active Measurement campaign could not produce an estimate."""


class ModelError(ReproError, ValueError):
    """An analytic model was evaluated outside its domain of validity."""


class CommError(ReproError, RuntimeError):
    """Invalid use of the simulated MPI layer (bad rank, tag mismatch...)."""


class ServiceError(ReproError, RuntimeError):
    """The measurement service could not honour a request."""


class StaleLease(ServiceError):
    """A lease operation (renew/complete/fail) arrived from an agent
    that no longer owns the job — its lease expired and the job was
    requeued, or a newer attempt superseded it. The stale agent must
    abandon the job; the broker has already arranged for it to run
    elsewhere."""
