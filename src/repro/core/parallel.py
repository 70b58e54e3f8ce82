"""Parallel campaign execution: point runners, result cache, telemetry.

The paper's protocol is embarrassingly parallel — every interference
point (kind, k) runs in a brand-new simulator with its own
deterministically-seeded RNG streams, so points are independent trials
(Section II; MISE/ASM treat per-configuration probe runs the same way).
This module provides the execution layer every campaign driver routes
its point runs through:

- :class:`PointRunner` — run a batch of independent point tasks on a
  ``serial``, ``thread`` or ``process`` backend, with worker-failure
  retry (bounded exponential backoff), an optional per-attempt timeout,
  and per-batch :class:`RunnerTelemetry`.
- :class:`ResultCache` — a content-addressed on-disk cache: each point
  is keyed by a hash of everything that determines its outcome
  (socket config, workload spec, kind, k, seed, window parameters), so
  re-running a campaign or example script skips already-measured points.
- :func:`point_seed` / :func:`trial_seed` — stable per-point (and
  per-trial) seed derivation, pure functions of the point's identity,
  never of execution order. This is what makes parallel runs
  bit-identical to serial ones (DESIGN.md, "deterministic seeding").

The runner also hosts the robustness layer's hooks: a
:class:`~repro.core.faults.FaultInjector` (deterministic chaos testing),
a :class:`~repro.core.journal.CampaignJournal` (crash-safe resume), and
a fail-soft mode in which a point that exhausts its retries becomes a
:class:`PointFailure` marker — a reported gap — instead of aborting the
whole batch.

Configuration via environment (read by :func:`default_runner`):

``REPRO_WORKERS``
    Worker count; 0/1 (default) selects the serial backend.
``REPRO_RUNNER_BACKEND``
    ``serial`` | ``thread`` | ``process`` (default ``process`` when
    ``REPRO_WORKERS`` > 1).
``REPRO_CACHE_DIR``
    Enables the on-disk result cache rooted at this directory.
``REPRO_JOURNAL``
    Enables the crash-safe campaign journal at this JSONL path; an
    existing journal is resumed (completed points are served from it).
``REPRO_FAULT_SEED`` (+ ``REPRO_FAULT_RATE`` …)
    Enables deterministic fault injection (see `repro.core.faults`).

An invalid ``REPRO_WORKERS`` or ``REPRO_RUNNER_BACKEND`` raises
:class:`~repro.errors.ConfigError` instead of falling back silently.
"""

from __future__ import annotations

import concurrent.futures as cf
import dataclasses
from concurrent.futures.process import BrokenProcessPool
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, MeasurementError
from ..obs.tracer import span as trace_span
from ..obs.tracer import tracer as current_tracer
from ..obs.tracer import worker_capture

#: Bump when the cached payload layout changes; part of every cache key.
CACHE_FORMAT = 1

BACKENDS = ("serial", "thread", "process")


# -- deterministic per-point seeding ------------------------------------------------


def point_seed(base_seed: int, kind: str, k: int) -> int:
    """Derive a per-point simulator seed from the point's *identity*.

    The derivation is a pure function of ``(base_seed, kind, k)`` — never
    of scheduling order or worker id — so serial and parallel executions
    of the same campaign observe identical RNG streams and produce
    bit-identical results.
    """
    tag = f"repro.point/{base_seed}/{kind}/{k}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


def backoff_delay(
    seed: int, token: str, attempt: int, base_s: float, max_s: float
) -> float:
    """Exponential backoff with deterministic, per-token jitter.

    Pure exponential delays make every actor that shared a transient
    fault retry in lockstep, re-colliding forever. The jitter spreads
    the round's delay over ``[0.5, 1.5)`` of the exponential base —
    derived by hashing ``(seed, token, attempt)``, so replays of the
    same schedule sleep identically. Shared by the runner's retry loop
    and the service broker's requeue backoff.
    """
    base = min(base_s * (2 ** attempt), max_s)
    tag = f"repro.backoff/{seed}/{token}/{attempt}".encode()
    frac = int.from_bytes(hashlib.sha256(tag).digest()[:8], "big") / 2.0**64
    return base * (0.5 + frac)


def trial_seed(base_seed: int, kind: str, k: int, trial: int) -> int:
    """Decorrelated seed for repeated trials of the same point.

    Trial 0 is the point's canonical seed (so single-trial sweeps and
    trial 0 of a robust sweep share cache entries); higher trials hash
    the trial index into the identity tag. Like :func:`point_seed`, a
    pure function of identity, never of execution order.
    """
    if trial < 0:
        raise MeasurementError("trial index must be non-negative")
    if trial == 0:
        return point_seed(base_seed, kind, k)
    tag = f"repro.trial/{base_seed}/{kind}/{k}/{trial}".encode()
    return int.from_bytes(hashlib.sha256(tag).digest()[:8], "big")


# -- content-addressed cache keys ---------------------------------------------------


def _jsonable(value: Any) -> Any:
    """Canonicalise a value for stable hashing."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": f"{type(value).__module__}.{type(value).__qualname__}",
            **{f.name: _jsonable(getattr(value, f.name))
               for f in dataclasses.fields(value)},
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"cannot canonicalise {type(value)!r} for cache hashing")


def cache_key(**parts: Any) -> str:
    """Content hash of everything that determines a point's outcome."""
    payload = json.dumps(
        _jsonable({"format": CACHE_FORMAT, **parts}),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


#: Everything ``pickle.load`` is known to raise on garbage bytes:
#: truncated streams (EOFError), torn opcodes (UnpicklingError,
#: ValueError, IndexError), byte-flipped text (UnicodeDecodeError, a
#: ValueError subclass, listed for the reader), and payloads referencing
#: renamed/removed symbols (AttributeError, ImportError).
CORRUPT_PICKLE_ERRORS = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    ValueError,
    UnicodeDecodeError,
)


class ResultCache:
    """On-disk pickle store addressed by :func:`cache_key` hashes.

    Writes are atomic (temp file + ``os.replace``) so concurrent workers
    racing on the same point cannot corrupt an entry; last writer wins
    with an identical payload (points are deterministic).

    Reads are self-healing: an entry whose bytes no longer unpickle is
    *quarantined* — renamed to ``<key>.corrupt`` — so it reads as a miss
    exactly once and is re-measured, instead of failing every future
    read. ``.tmp`` droppings leaked by writers killed mid-``put`` are
    swept on construction once older than ``stale_tmp_age_s``.
    """

    def __init__(self, directory: str | Path, stale_tmp_age_s: float = 3600.0):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: Corrupt entries quarantined by :meth:`get` over this cache's
        #: lifetime (surfaced as ``RunnerTelemetry.quarantines``).
        self.quarantined = 0
        #: Stale writer temp files removed at construction.
        self.tmp_swept = self._sweep_stale_tmp(stale_tmp_age_s)

    def _sweep_stale_tmp(self, max_age_s: float) -> int:
        """Remove ``.tmp`` files older than ``max_age_s`` (a writer that
        old is dead, not slow)."""
        cutoff = time.time() - max_age_s
        n = 0
        for path in self.directory.glob("*.tmp"):
            try:
                if path.stat().st_mtime < cutoff:
                    path.unlink()
                    n += 1
            except OSError:
                pass  # raced with another sweeper, or unreadable: skip
        return n

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(".corrupt"))
        except OSError:
            return  # somebody else already moved/removed it
        self.quarantined += 1

    def get(self, key: str) -> Optional[Any]:
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except CORRUPT_PICKLE_ERRORS:
            # Bad bytes, not a missing file: move the entry aside so the
            # point is re-measured once instead of erroring forever.
            self._quarantine(path)
            return None
        except OSError:
            return None

    def put(self, key: str, value: Any) -> None:
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
                # fsync *before* the rename: os.replace makes the name
                # durable, not the bytes. Without it a power loss after
                # the rename can leave a fully-named entry holding a
                # short pickle, which every later read quarantines —
                # re-measuring a point the cache claimed to have.
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))

    def clear(self) -> int:
        """Delete every entry — including quarantined ``.corrupt``
        carcasses and ``.tmp`` files leaked by killed writers, which a
        ``*.pkl``-only sweep would let accumulate forever. Returns the
        number of files removed."""
        n = 0
        for pattern in ("*.pkl", "*.tmp", "*.corrupt"):
            for path in self.directory.glob(pattern):
                try:
                    path.unlink()
                    n += 1
                except OSError:
                    pass
        return n

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        root = os.environ.get("REPRO_CACHE_DIR")
        return cls(root) if root else None


# -- telemetry ----------------------------------------------------------------------


@dataclass
class RunnerTelemetry:
    """Counters for one runner batch (or a whole session when merged)."""

    backend: str = "serial"
    workers: int = 1
    points_total: int = 0
    points_done: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    retries: int = 0
    timeouts: int = 0
    failures: int = 0
    #: Corrupt cache entries quarantined (renamed aside) during reads.
    quarantines: int = 0
    #: Points served from the crash-safe campaign journal on resume.
    journal_hits: int = 0
    #: Points that exhausted retries under fail-soft and were reported
    #: as gaps instead of aborting the batch.
    gaps: int = 0
    #: Tasks that could not be shipped to a worker process (unpicklable
    #: workload factory) and ran inline in the parent instead.
    inline_fallbacks: int = 0
    #: Process pools rebuilt after a BrokenProcessPool. Bounded by the
    #: runner's ``max_pool_restarts``; once the budget is spent the
    #: remaining tasks run serially instead of churning dead pools.
    pool_restarts: int = 0
    #: Sum of per-attempt execution time (worker-side, seconds).
    busy_s: float = 0.0
    #: Wall-clock span of the batch — or, after :meth:`merge`, of the
    #: whole session (first batch start .. last batch end, seconds).
    wall_s: float = 0.0
    #: Monotonic (``perf_counter``) batch start/end; zero when the
    #: telemetry was built by hand without timestamps.
    t_start_s: float = 0.0
    t_end_s: float = 0.0

    #: Utilization above this is an accounting bug (busy time cannot
    #: exceed wall-clock x workers); the epsilon absorbs clock jitter.
    UTILIZATION_ERROR_ABOVE = 1.0 + 1e-6

    @property
    def utilization(self) -> float:
        """Fraction of worker capacity kept busy over the wall span.

        Deliberately **unclamped**: a value above 1.0 is impossible for
        correct accounting, and clamping it (as this property once did)
        silently masked the bug where :meth:`merge` summed per-batch
        wall times instead of spanning them. :meth:`summary` flags
        over-unity loudly instead.
        """
        if self.wall_s <= 0 or self.workers <= 0:
            return 0.0
        return self.busy_s / (self.wall_s * self.workers)

    @property
    def utilization_error(self) -> bool:
        """True when the books don't balance (utilization > 1)."""
        return self.utilization > self.UTILIZATION_ERROR_ABOVE

    def merge(self, other: "RunnerTelemetry") -> None:
        self.points_total += other.points_total
        self.points_done += other.points_done
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.retries += other.retries
        self.timeouts += other.timeouts
        self.failures += other.failures
        self.quarantines += other.quarantines
        self.journal_hits += other.journal_hits
        self.gaps += other.gaps
        self.inline_fallbacks += other.inline_fallbacks
        self.pool_restarts += other.pool_restarts
        self.busy_s += other.busy_s
        # Wall time is a *span*, not a sum: N sequential batches cover
        # first-start..last-end, and summing their individual walls
        # understated utilization by ~N x. Fall back to summing only for
        # hand-built telemetry that carries no timestamps.
        if self.t_start_s > 0.0 and other.t_start_s > 0.0:
            self.t_start_s = min(self.t_start_s, other.t_start_s)
            self.t_end_s = max(self.t_end_s, other.t_end_s)
            self.wall_s = self.t_end_s - self.t_start_s
        elif other.t_start_s > 0.0 and self.t_start_s == 0.0 and self.wall_s == 0.0:
            # First batch merged into a fresh aggregate: adopt its span.
            self.t_start_s, self.t_end_s = other.t_start_s, other.t_end_s
            self.wall_s = other.wall_s
        else:
            self.wall_s += other.wall_s
        self.workers = max(self.workers, other.workers)
        if other.backend != "serial":
            self.backend = other.backend

    def reset(self) -> None:
        """Zero every field *in place*, so aliases captured before a
        session reset keep observing the live object."""
        fresh = RunnerTelemetry()
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(fresh, f.name))

    def as_dict(self) -> Dict[str, Any]:
        out = dataclasses.asdict(self)
        # Monotonic timestamps are meaningless outside this process.
        out.pop("t_start_s", None)
        out.pop("t_end_s", None)
        out["utilization"] = round(self.utilization, 4)
        out["busy_s"] = round(self.busy_s, 4)
        out["wall_s"] = round(self.wall_s, 4)
        return out

    def summary(self) -> str:
        util = f"utilization {self.utilization * 100:.0f}%"
        if self.utilization_error:
            util += (
                " [ACCOUNTING ERROR: busy time exceeds wall-clock x "
                "workers — telemetry merge is over-counting]"
            )
        bits = [
            f"{self.points_done}/{self.points_total} points",
            f"{self.cache_hits} cache hits",
            f"backend={self.backend} x{self.workers}",
            util,
        ]
        if self.journal_hits:
            bits.append(f"{self.journal_hits} journal hits")
        if self.retries:
            bits.append(f"{self.retries} retries")
        if self.pool_restarts:
            bits.append(f"{self.pool_restarts} pool restarts")
        if self.quarantines:
            bits.append(f"{self.quarantines} quarantined cache entries")
        if self.failures:
            bits.append(f"{self.failures} failures")
        if self.gaps:
            bits.append(f"{self.gaps} gaps")
        return ", ".join(bits)


#: Process-wide aggregate every PointRunner batch reports into; the CLI
#: reads it after a driver finishes to attach runner telemetry to the
#: experiment record. NEVER rebound — see reset_session_telemetry().
_SESSION = RunnerTelemetry()


def session_telemetry() -> RunnerTelemetry:
    """The stable session-telemetry singleton (same object for the
    lifetime of the process; resets clear it in place)."""
    return _SESSION


def reset_session_telemetry() -> None:
    """Zero the session counters **in place**.

    This used to rebind the module global, which stranded every alias
    captured before the reset on a dead object — code holding an old
    ``session_telemetry()`` reference kept reporting into (and reading
    from) counters nobody else could see. Clearing in place keeps the
    singleton identity stable across resets.
    """
    _SESSION.reset()


# -- tasks & runner -----------------------------------------------------------------


@dataclass(frozen=True)
class PointTask:
    """One independent unit of campaign work.

    ``fn`` must be a module-level callable (picklable) for the process
    backend; ``key`` (a :func:`cache_key` hash) enables caching, ``None``
    marks the task uncacheable.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    key: Optional[str] = None
    label: str = "point"


@dataclass(frozen=True)
class PointFailure:
    """Marker a fail-soft batch returns for a point that exhausted its
    retries — an explicit, inspectable gap, never a silent zero."""

    label: str
    error: str

    def __bool__(self) -> bool:
        return False  # so ``filter(None, results)`` drops gaps


def _timed_call(
    fn: Callable[..., Any],
    args: Tuple[Any, ...],
    injector: Optional[Any] = None,
    label: str = "point",
    attempt: int = 0,
    trace: Any = False,
) -> Tuple[Any, float, Optional[List[Dict[str, Any]]]]:
    """Worker-side wrapper: run the task and report its execution time.

    When a :class:`~repro.core.faults.FaultInjector` rides along, its
    scheduled faults fire *before* the measurement — they can stall,
    raise, or kill the worker, but never touch the deterministic
    simulation itself.

    ``trace`` selects the tracing mode: ``False`` (free fast path),
    ``True`` (attempt span on the live in-process tracer — serial and
    thread backends), or ``"ship"`` (process-pool workers: capture the
    spans in memory and return them as the third element so the parent
    ingests them into its event log). Spans of a *failed* attempt die
    with the exception — only completed attempts ship events home.
    """
    if injector is not None:
        injector.before_attempt(label, attempt)
    if not trace:
        t0 = time.perf_counter()
        out = fn(*args)
        return out, time.perf_counter() - t0, None
    with worker_capture(force=trace == "ship") as shipped:
        with trace_span("attempt", cat="attempt", label=label, attempt=attempt):
            t0 = time.perf_counter()
            out = fn(*args)
            dt = time.perf_counter() - t0
    return out, dt, shipped


#: Progress hook signature: (completed, total, telemetry-so-far).
ProgressHook = Callable[[int, int, RunnerTelemetry], None]


class PointRunner:
    """Executes batches of :class:`PointTask` with caching and retries.

    Parameters
    ----------
    backend:
        ``serial`` (in-process loop, the default), ``thread``
        (ThreadPoolExecutor; parallel I/O, GIL-bound compute),
        or ``process`` (ProcessPoolExecutor; true parallelism — tasks and
        their results must pickle).
    max_workers:
        Pool width for the pooled backends; ignored by ``serial``.
    cache:
        A :class:`ResultCache`; ``None`` disables caching even for tasks
        that carry keys.
    retries:
        Extra attempts per task after the first failure.
    backoff_s / max_backoff_s:
        Exponential backoff between attempt rounds, bounded above.
    timeout_s:
        Per-attempt limit on the pooled backends; a task that exceeds it
        counts as a failure (and is retried). The serial backend cannot
        preempt a running point, so the limit is not enforced there.
    progress:
        Optional hook called after every completed point.
    journal:
        A :class:`~repro.core.journal.CampaignJournal`; completed points
        are appended durably and served back on resume without
        re-execution, making a killed campaign restartable with
        bit-identical final output.
    injector:
        A :class:`~repro.core.faults.FaultInjector` for deterministic
        chaos runs; ``None`` (the default) injects nothing.
    fail_soft:
        When true, a task that exhausts its retries yields a
        :class:`PointFailure` marker (a reported gap) instead of
        aborting the batch with :class:`MeasurementError`.
        :class:`MeasurementError` raised by the task itself still
        propagates — configuration errors are deterministic and gapping
        them would hide bugs.
    backoff_seed:
        Seed of the deterministic backoff jitter (see :meth:`_backoff`).
    max_pool_restarts:
        How many times a broken process pool is rebuilt per batch before
        the runner gives up on pooling and runs the remaining tasks
        serially (telemetered as ``pool_restarts`` /
        ``inline_fallbacks``). A machine that kills every worker (OOM,
        cgroup limits) would otherwise churn fresh pools forever.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: Optional[int] = None,
        cache: Optional[ResultCache] = None,
        retries: int = 2,
        backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        timeout_s: Optional[float] = None,
        progress: Optional[ProgressHook] = None,
        journal: Optional[Any] = None,
        injector: Optional[Any] = None,
        fail_soft: bool = False,
        backoff_seed: int = 0,
        max_pool_restarts: int = 3,
    ):
        if backend not in BACKENDS:
            raise MeasurementError(
                f"unknown runner backend {backend!r}; pick one of {BACKENDS}"
            )
        if retries < 0:
            raise MeasurementError("retries must be non-negative")
        if max_pool_restarts < 0:
            raise MeasurementError("max_pool_restarts must be non-negative")
        self.backend = backend
        self.max_workers = max(1, int(max_workers or (os.cpu_count() or 1)))
        self.cache = cache
        self.retries = retries
        self.backoff_s = backoff_s
        self.max_backoff_s = max_backoff_s
        self.timeout_s = timeout_s
        self.progress = progress
        self.journal = journal
        self.injector = injector
        self.fail_soft = fail_soft
        self.backoff_seed = backoff_seed
        self.max_pool_restarts = max_pool_restarts
        #: Telemetry of the most recent :meth:`run` batch.
        self.last_telemetry: Optional[RunnerTelemetry] = None

    # -- public API -----------------------------------------------------------

    def run(
        self, tasks: Sequence[PointTask], fail_soft: Optional[bool] = None
    ) -> List[Any]:
        """Run every task, returning results in input order.

        Journaled and cached results are served without executing; fresh
        results are written back to both. Any task still failing after
        all retry rounds aborts the batch with :class:`MeasurementError`
        — unless fail-soft is on, in which case the slot holds a
        :class:`PointFailure` gap marker.
        """
        soft = self.fail_soft if fail_soft is None else fail_soft
        tele = RunnerTelemetry(
            backend=self.backend,
            workers=1 if self.backend == "serial" else self.max_workers,
            points_total=len(tasks),
        )
        t0 = time.perf_counter()
        tele.t_start_s = t0
        quarantined0 = self.cache.quarantined if self.cache is not None else 0
        results: List[Any] = [None] * len(tasks)
        pending: List[int] = []
        batch = trace_span(
            "batch", cat="runner",
            backend=self.backend, workers=tele.workers, tasks=len(tasks),
        )
        batch.__enter__()
        for i, task in enumerate(tasks):
            hit = self._journal_get(task)
            if hit is not None:
                results[i] = hit
                tele.journal_hits += 1
                tele.points_done += 1
                self._report_progress(tele)
                continue
            hit = self._cache_get(task)
            if hit is not None:
                results[i] = hit
                tele.cache_hits += 1
                tele.points_done += 1
                # A cache hit not yet journaled still counts as campaign
                # progress; record it so a later resume needs no cache.
                self._journal_put(task, hit)
                self._report_progress(tele)
            else:
                if task.key is not None and self.cache is not None:
                    tele.cache_misses += 1
                pending.append(i)

        try:
            if pending:
                if self.backend == "serial":
                    self._run_serial(tasks, pending, results, tele, soft)
                else:
                    self._run_pooled(tasks, pending, results, tele, soft)
        finally:
            # Record telemetry even when the batch aborts, so failures
            # and timeouts stay observable.
            now = time.perf_counter()
            tele.t_end_s = now
            tele.wall_s = now - t0
            if self.cache is not None:
                tele.quarantines += self.cache.quarantined - quarantined0
            self.last_telemetry = tele
            _SESSION.merge(tele)
            batch.__exit__(None, None, None)
            # The tracer is the counter backend: stream both this
            # batch's counters and the running session aggregate.
            tracer = current_tracer()
            if tracer.enabled:
                tracer.record_counters("runner.batch", tele.as_dict())
                tracer.record_counters("runner.session", _SESSION.as_dict())
        return results

    def run_labeled(self, tasks: Sequence[PointTask]) -> Dict[str, Any]:
        """Convenience: results keyed by task label."""
        return {t.label: r for t, r in zip(tasks, self.run(tasks))}

    # -- internals ------------------------------------------------------------

    def _journal_get(self, task: PointTask) -> Optional[Any]:
        if self.journal is None or task.key is None:
            return None
        with trace_span("journal.get", cat="journal", label=task.label) as sp:
            hit = self.journal.get(task.key)
            sp.set(hit=hit is not None)
        return hit

    def _journal_put(self, task: PointTask, value: Any) -> None:
        if self.journal is not None and task.key is not None:
            with trace_span("journal.put", cat="journal", label=task.label):
                self.journal.record_point(task.key, task.label, value)

    def _cache_get(self, task: PointTask) -> Optional[Any]:
        if self.cache is None or task.key is None:
            return None
        if self.injector is not None:
            # Chaos: rot the entry on disk *before* the read, so the
            # quarantine path (rename aside, re-measure) is exercised.
            self.injector.corrupt_cache_entry(self.cache, task.key)
        with trace_span("cache.get", cat="cache", label=task.label) as sp:
            hit = self.cache.get(task.key)
            sp.set(hit=hit is not None)
        return hit

    def _cache_put(self, task: PointTask, value: Any) -> None:
        if self.cache is not None and task.key is not None:
            with trace_span("cache.put", cat="cache", label=task.label):
                self.cache.put(task.key, value)

    def _report_progress(self, tele: RunnerTelemetry) -> None:
        if self.progress is not None:
            self.progress(tele.points_done, tele.points_total, tele)

    def _backoff(self, attempt: int, token: str = "") -> float:
        """This runner's retry delay: the shared deterministic-jitter
        schedule (:func:`backoff_delay`) under its seed and bounds."""
        return backoff_delay(
            self.backoff_seed, token, attempt, self.backoff_s,
            self.max_backoff_s,
        )

    def _finish(self, i: int, task: PointTask, value: Any, dt: float,
                results: List[Any], tele: RunnerTelemetry,
                shipped: Optional[List[Dict[str, Any]]] = None) -> None:
        current_tracer().ingest(shipped)
        results[i] = value
        tele.busy_s += dt
        tele.points_done += 1
        self._cache_put(task, value)
        self._journal_put(task, value)
        self._report_progress(tele)

    def _fail(self, i: int, task: PointTask, exc: BaseException,
              results: List[Any], tele: RunnerTelemetry, soft: bool) -> None:
        tele.failures += 1
        if not soft:
            raise MeasurementError(
                f"point {task.label!r} failed after {self.retries + 1} "
                f"attempts: {exc!r}"
            ) from exc
        tele.gaps += 1
        results[i] = PointFailure(label=task.label, error=repr(exc))
        self._report_progress(tele)

    def _run_serial(self, tasks: Sequence[PointTask], pending: List[int],
                    results: List[Any], tele: RunnerTelemetry,
                    soft: bool = False) -> None:
        traced = current_tracer().enabled
        for i in pending:
            task = tasks[i]
            last_exc: Optional[BaseException] = None
            for attempt in range(self.retries + 1):
                if attempt:
                    tele.retries += 1
                    time.sleep(self._backoff(attempt - 1, token=task.label))
                try:
                    value, dt, shipped = _timed_call(
                        task.fn, task.args, self.injector, task.label,
                        attempt, traced,
                    )
                except MeasurementError:
                    # Configuration errors are deterministic: retrying
                    # cannot help, and callers rely on them propagating.
                    raise
                except Exception as exc:  # noqa: BLE001 - retry any worker fault
                    last_exc = exc
                    continue
                self._finish(i, task, value, dt, results, tele, shipped)
                last_exc = None
                break
            if last_exc is not None:
                self._fail(i, task, last_exc, results, tele, soft)

    def _picklable(self, task: PointTask) -> bool:
        try:
            pickle.dumps((task.fn, task.args))
            return True
        except Exception:  # noqa: BLE001 - any pickling fault
            return False

    def _run_pooled(self, tasks: Sequence[PointTask], pending: List[int],
                    results: List[Any], tele: RunnerTelemetry,
                    soft: bool = False) -> None:
        if self.backend == "process":
            shippable = [i for i in pending if self._picklable(tasks[i])]
            inline = [i for i in pending if i not in set(shippable)]
            executor: cf.Executor = cf.ProcessPoolExecutor(
                max_workers=min(self.max_workers, max(1, len(shippable)) )
            )
        else:
            shippable, inline = list(pending), []
            executor = cf.ThreadPoolExecutor(max_workers=self.max_workers)

        # Unpicklable tasks cannot leave the parent process; run them
        # inline so a lambda workload factory degrades gracefully.
        if inline:
            tele.inline_fallbacks += len(inline)
            self._run_serial(tasks, inline, results, tele, soft)

        try:
            if not current_tracer().enabled:
                traced: Any = False
            elif self.backend == "process":
                traced = "ship"  # capture in the child, ingest here
            else:
                traced = True
            remaining = list(shippable)
            errors: Dict[int, BaseException] = {}
            pool_exhausted = False
            for attempt in range(self.retries + 1):
                if not remaining or pool_exhausted:
                    break
                if attempt:
                    tele.retries += len(remaining)
                    token = ",".join(tasks[i].label for i in remaining)
                    time.sleep(self._backoff(attempt - 1, token=token))
                futures = {
                    executor.submit(
                        _timed_call, tasks[i].fn, tasks[i].args,
                        self.injector, tasks[i].label, attempt, traced,
                    ): i
                    for i in remaining
                }
                failed: List[int] = []
                errors = {}
                pool_broken = False
                for fut, i in futures.items():
                    try:
                        value, dt, shipped = fut.result(timeout=self.timeout_s)
                    except MeasurementError:
                        raise
                    except cf.TimeoutError as exc:
                        # The attempt is *abandoned*, never harvested: a
                        # hung worker thread cannot be preempted, but
                        # its future is dropped here and no completion
                        # path ever writes it into a result slot — only
                        # this loop fills `results`, and it consults
                        # each future exactly once.
                        fut.cancel()
                        tele.timeouts += 1
                        failed.append(i)
                        errors[i] = exc
                    except BrokenProcessPool as exc:
                        # The pool is dead; every sibling future fails
                        # with the same error. Rebuild it at most
                        # ``max_pool_restarts`` times per batch, then
                        # stop churning pools and go serial.
                        failed.append(i)
                        errors[i] = exc
                        if not pool_broken:
                            pool_broken = True
                            executor.shutdown(wait=False, cancel_futures=True)
                            if tele.pool_restarts < self.max_pool_restarts:
                                tele.pool_restarts += 1
                                executor = cf.ProcessPoolExecutor(
                                    max_workers=self.max_workers
                                )
                            else:
                                pool_exhausted = True
                    except Exception as exc:  # noqa: BLE001
                        failed.append(i)
                        errors[i] = exc
                    else:
                        self._finish(i, tasks[i], value, dt, results, tele,
                                     shipped)
                remaining = failed
            if pool_exhausted and remaining:
                # The pool-restart budget is spent: the machine kills
                # every worker we start, so the parent process is the
                # only executor left standing. Serial still honours the
                # per-task retry loop, so a transient fault that also
                # broke the pool gets its remaining attempts.
                tele.inline_fallbacks += len(remaining)
                self._run_serial(tasks, remaining, results, tele, soft)
                remaining = []
            for i in remaining:
                self._fail(i, tasks[i], errors[i], results, tele, soft)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)


# -- environment-driven default -----------------------------------------------------


def default_runner(progress: Optional[ProgressHook] = None) -> PointRunner:
    """Build a runner from ``REPRO_WORKERS`` / ``REPRO_RUNNER_BACKEND`` /
    ``REPRO_CACHE_DIR`` / ``REPRO_JOURNAL`` / ``REPRO_FAULT_SEED``;
    serial, uncached, un-journaled and fault-free unless configured.

    An unset or blank variable takes its default; any other value that
    is not a valid choice raises :class:`~repro.errors.ConfigError`
    naming the variable, the value and the valid choices.
    """
    from .faults import FaultInjector
    from .journal import CampaignJournal

    raw = os.environ.get("REPRO_WORKERS", "").strip() or "1"
    if not (raw.isascii() and raw.isdigit()):
        raise ConfigError(
            f"REPRO_WORKERS must be a non-negative integer, got {raw!r}"
        )
    workers = int(raw)
    backend = os.environ.get("REPRO_RUNNER_BACKEND", "").strip()
    if not backend:
        backend = "process" if workers > 1 else "serial"
    elif backend not in BACKENDS:
        opts = " or ".join(repr(b) for b in BACKENDS)
        raise ConfigError(
            f"unknown value {backend!r} for REPRO_RUNNER_BACKEND: must be {opts}"
        )
    if backend == "serial":
        workers = 1
    timeout = os.environ.get("REPRO_POINT_TIMEOUT_S")
    return PointRunner(
        backend=backend,
        max_workers=max(1, workers),
        cache=ResultCache.from_env(),
        timeout_s=float(timeout) if timeout else None,
        progress=progress,
        journal=CampaignJournal.from_env(),
        injector=FaultInjector.from_env(),
    )
