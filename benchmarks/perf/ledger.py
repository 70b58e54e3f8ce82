"""Instrumentation the benchmark attaches to the repo's public functions.

Both instruments are installed by *name* from this file — nothing under
``src/`` knows it is being measured — and both restore every attribute
they replaced when removed:

- :class:`Probes` holds the few counters and timestamps the end-to-end
  metrics need, so it is installed in every run: simulated accesses
  summed from each ``ScheduleOutcome``, per-point latency (simulator
  construction to the return of its measured window) and the broker's
  per-job submit/lease/complete times. It acts once per scheduler
  window, point or job, never per access. In untraced runs it also
  carries the :class:`HostSpeed` gauge.
- :class:`Ledger` is the per-layer ledger of a traced run: call counts
  and self time for every wrapped function, where self time excludes
  wrapped callees, plus spans with parent and root ids.

A target that no longer exists is recorded as absent instead of
raising, so a later change that deletes a class still gets a ledger.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import threading
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Layer function -> wrapped targets (``module:Qualified.name``). The
#: ``workloads.fill_block``/``workloads.start`` entries are filled from
#: every ``SimThread`` subclass that defines its own method; the
#: ``service.query`` and ``experiments.driver`` spans are opened by the
#: workloads themselves around their calls into the CLI and the drivers.
LAYER_TARGETS: Dict[str, Tuple[str, ...]] = {
    "workloads.line_pmf": (
        "repro.workloads.distributions:IndexDistribution.line_pmf",),
    "workloads.fill_block": (),
    "workloads.start": (),
    "engine.scheduler_run": ("repro.engine.scheduler:Scheduler.run",),
    "engine.refill": ("repro.engine.scheduler:Scheduler.macro_window_event",),
    "engine.run_chunk": (
        "repro.engine.arraypath:ArraySocket.run_chunk",
        "repro.engine.fastpath:FastSocket.run_chunk",
        "repro.engine.node:NodeKernel.run_chunk",
    ),
    "engine.sim_init": (
        "repro.engine.socket_sim:SocketSimulator.__init__",
        "repro.engine.socket_sim:SocketSimulator.add_thread",
        "repro.engine.node:NodeSimulator.__init__",
        "repro.engine.node:NodeSimulator.add_thread",
    ),
    "mem.alloc": ("repro.mem.addrspace:AddressSpace.alloc",),
    "models.ehr": (
        "repro.models.ehr:EHRModel.__init__",
        "repro.models.ehr:EHRModel.miss_rate",
        "repro.models.ehr:EHRModel.effective_capacity_bytes",
        "repro.models.ehr:EHRModel.check",
    ),
    "core.runner": ("repro.core.parallel:PointRunner.run",),
    "core.run_point": ("repro.core.sweep:ActiveMeasurement.run_point",),
    "core.cache_get": ("repro.core.parallel:ResultCache.get",),
    "core.cache_put": ("repro.core.parallel:ResultCache.put",),
    "core.journal_get": ("repro.core.journal:CampaignJournal.get",),
    "core.journal_record": ("repro.core.journal:CampaignJournal.record_point",),
    "service.submit": ("repro.service.broker:DurableBroker.submit",),
    "service.lease": ("repro.service.broker:DurableBroker.lease",),
    "service.renew": ("repro.service.broker:DurableBroker.renew",),
    "service.complete": ("repro.service.broker:DurableBroker.complete",),
    "service.run_job": ("repro.service.agent:MeasurementAgent.run_job",),
    "service.write_result": ("repro.service.agent:write_result_atomic",),
    "service.query": (),
    "experiments.driver": (),
}

#: Every layer function the ledger reports, in report order.
LAYER_FUNCTIONS: Tuple[str, ...] = tuple(LAYER_TARGETS)

#: Modules whose import registers every ``SimThread`` subclass.
THREAD_MODULES = ("repro.workloads", "repro.apps")

#: Spans a traced run keeps in memory; later ones are only counted.
MAX_SPANS = 200_000


def resolve(path: str) -> Optional[Tuple[object, str]]:
    """``module:Class.attr`` or ``module:function`` -> ``(owner, attr)``
    where ``owner`` is the class (first in the MRO) or module that
    defines the attribute; ``None`` when any part no longer exists."""
    module_name, _, qualname = path.partition(":")
    try:
        owner: object = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = qualname.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in vars(klass):
                return klass, attr
        return None
    return (owner, attr) if callable(vars(owner).get(attr)) else None


def simthread_classes() -> List[type]:
    """Every loaded ``SimThread`` subclass (after importing the modules
    that define them), or an empty list when the base class is gone."""
    for module in THREAD_MODULES:
        try:
            importlib.import_module(module)
        except ImportError:
            pass
    try:
        from repro.engine.thread import SimThread
    except ImportError:
        return []
    out: List[type] = []
    todo = list(SimThread.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out


class Patches:
    """Attribute replacements, undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner: object, attr: str,
             make: Callable[[Callable], Callable]) -> None:
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, functools.wraps(raw)(make(raw)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


#: Seconds between two host-speed samples of a run (a sample takes
#: about 0.75 ms, so the gauge costs under 1% of the run).
SPEED_EVERY_S = 0.1
#: Median time of each part of a host-speed sample during a run on the
#: reference host, a quiet 2-vCPU Xeon guest (README.md), the fsync
#: part during service_drain. They only set the scale: a run's slowdown
#: of a part is its median over this.
SPEED_REF_S = {"cpu": 3.2e-4, "fsync": 0.92e-4}
#: ``os.fsync`` as loaded, before :class:`Probes` wraps it.
_FSYNC = os.fsync


class HostSpeed:
    """Gauge of how fast the host runs right now.

    Other tenants of a shared host slow every process on it, by up to
    2x for minutes at a time, and they slow ``fsync`` far more than
    computation. A sample times two fixed pieces of work the benchmark
    owns, which slow down with the host: ``cpu``, a random gather over
    256 KiB and a sort of 3,000 floats, and ``fsync``, making a 2 KiB
    write durable. The ``fsync`` part also moves with the workload's own
    file-system traffic, which is why it only scales the time a run
    spends in ``os.fsync`` (README.md).
    """

    def __init__(self, scratch: Path) -> None:
        rng = np.random.default_rng(0)
        self._data = np.arange(1 << 15, dtype=np.int64)
        self._index = rng.integers(0, self._data.size, 20_000)
        self._floats = rng.random(3_000).tolist()
        self._file = scratch / "host-speed.tmp"
        self.samples: Dict[str, List[float]] = {part: [] for part in SPEED_REF_S}
        self._due = 0.0

    def sample(self) -> None:
        # The cpu part runs twice and the second pass is timed: the first
        # brings its data back into the caches the workload evicted, so
        # the timed pass does not depend on the code under test.
        for _ in range(2):
            t0 = time.perf_counter()
            int(self._data[self._index].sum())
            sorted(self._floats)
            t1 = time.perf_counter()
        with open(self._file, "wb") as fh:
            fh.write(bytes(2048))
            fh.flush()
            t2 = time.perf_counter()
            _FSYNC(fh.fileno())
            t3 = time.perf_counter()
        self.samples["cpu"].append(t1 - t0)
        self.samples["fsync"].append(t3 - t2)

    def tick(self) -> None:
        """Take a sample unless the last one is under
        :data:`SPEED_EVERY_S` old."""
        if time.perf_counter() >= self._due:
            self.sample()
            self._due = time.perf_counter() + SPEED_EVERY_S

    def clear(self) -> None:
        for samples in self.samples.values():
            samples.clear()

    def slowdown(self, part: str) -> float:
        return statistics.median(self.samples[part]) / SPEED_REF_S[part]


class Probes:
    """Counters and timestamps behind the end-to-end metrics, the main
    thread's time in ``os.fsync``, and, when ``speed_dir`` is given, the
    :class:`HostSpeed` gauge writing there, sampled at each simulator
    construction and each :meth:`tick` of a workload."""

    def __init__(self, speed_dir: Optional[Path] = None) -> None:
        self.absent: List[str] = []
        self.speed = HostSpeed(speed_dir) if speed_dir is not None else None
        self._patches = Patches()
        self._marks: "weakref.WeakKeyDictionary[object, float]" = (
            weakref.WeakKeyDictionary()
        )
        self.reset()

    def tick(self) -> None:
        if self.speed is not None:
            self.speed.tick()

    def reset(self) -> None:
        #: Simulated accesses, all cores, summed over scheduler windows.
        self.accesses = 0
        #: Seconds the main thread spent in ``os.fsync``.
        self.fsync_s = 0.0
        #: Seconds from a simulator's construction (or its previous
        #: window) to the return of each measured window.
        self.point_latencies: List[float] = []
        #: Job id -> ``perf_counter`` when submit / lease / complete returned.
        self.submitted: Dict[str, float] = {}
        self.leased: Dict[str, float] = {}
        self.completed: Dict[str, float] = {}

    def install(self) -> None:
        for path, make in (
            ("repro.engine.scheduler:Scheduler.run", self._count_accesses),
            ("repro.engine.socket_sim:SocketSimulator.__init__", self._mark),
            ("repro.engine.socket_sim:SocketSimulator.measure", self._window),
            ("repro.engine.node:NodeSimulator.__init__", self._mark),
            ("repro.engine.node:NodeSimulator.measure", self._window),
            ("repro.service.broker:DurableBroker.submit", self._stamp_submit),
            ("repro.service.broker:DurableBroker.lease", self._stamp_lease),
            ("repro.service.broker:DurableBroker.complete", self._stamp_complete),
            ("os:fsync", self._time_fsync),
        ):
            found = resolve(path)
            if found is None:
                self.absent.append(path)
            else:
                self._patches.wrap(*found, make)

    def uninstall(self) -> None:
        self._patches.restore()

    def _count_accesses(self, fn: Callable) -> Callable:
        def run(sched, *args, **kwargs):
            outcome = fn(sched, *args, **kwargs)
            self.accesses += outcome.total_accesses
            return outcome
        return run

    def _time_fsync(self, fn: Callable) -> Callable:
        main = threading.get_ident()

        def fsync(fd):
            t0 = time.perf_counter()
            try:
                return fn(fd)
            finally:
                if threading.get_ident() == main:
                    self.fsync_s += time.perf_counter() - t0
        return fsync

    def _mark(self, fn: Callable) -> Callable:
        def init(sim, *args, **kwargs):
            self.tick()
            t0 = time.perf_counter()
            fn(sim, *args, **kwargs)
            self._marks[sim] = t0
        return init

    def _window(self, fn: Callable) -> Callable:
        def measure(sim, *args, **kwargs):
            result = fn(sim, *args, **kwargs)
            now = time.perf_counter()
            start = self._marks.get(sim)
            if start is not None:
                self.point_latencies.append(now - start)
            self._marks[sim] = now
            return result
        return measure

    def _stamp_submit(self, fn: Callable) -> Callable:
        def submit(broker, *args, **kwargs):
            job_id = fn(broker, *args, **kwargs)
            self.submitted[job_id] = time.perf_counter()
            return job_id
        return submit

    def _stamp_lease(self, fn: Callable) -> Callable:
        def lease(broker, *args, **kwargs):
            job = fn(broker, *args, **kwargs)
            if job is not None:
                self.leased.setdefault(job.id, time.perf_counter())
            return job
        return lease

    def _stamp_complete(self, fn: Callable) -> Callable:
        def complete(broker, job_id, *args, **kwargs):
            out = fn(broker, job_id, *args, **kwargs)
            self.completed[job_id] = time.perf_counter()
            return out
        return complete


class Ledger:
    """Per-layer call counts, self time and spans of a traced run.

    Spans opened on the main thread nest on one stack: a span's self
    time is its duration minus the time of the spans directly inside
    it, and the outermost spans are roots (one per driver call, point,
    job or query) whose total duration is the covered wall time. Calls
    from other threads (the agent's lease heartbeat) are counted with
    their whole duration as self time and cover nothing.
    """

    def __init__(self, keep_spans: bool = False):
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: Total duration of root spans on the main thread.
        self.covered_s = 0.0
        self.absent: List[str] = []
        self.spans: Optional[List[tuple]] = [] if keep_spans else None
        self.dropped_spans = 0
        self._stack: List[list] = []
        self._next_id = 1
        self._main = threading.get_ident()
        self._t0 = time.perf_counter()
        self._patches = Patches()

    def install(self) -> None:
        seen = set()
        for metric, paths in LAYER_TARGETS.items():
            for path in paths:
                found = resolve(path)
                if found is None:
                    self.absent.append(path)
                elif found not in seen:
                    seen.add(found)
                    self._patches.wrap(*found, self._wrapper(metric))
        classes = simthread_classes()
        if not classes:
            self.absent.append("repro.engine.thread:SimThread")
        for cls in classes:
            for attr in ("fill_block", "start"):
                if attr in vars(cls):
                    self._patches.wrap(cls, attr, self._wrapper(f"workloads.{attr}"))

    def uninstall(self) -> None:
        self._patches.restore()

    def reset(self) -> None:
        """Zero the counters (spans and absent targets are kept)."""
        self.calls.clear()
        self.self_s.clear()
        self.covered_s = 0.0

    @contextmanager
    def span(self, metric: str) -> Iterator[None]:
        """A span opened by the benchmark around its own call."""
        frame = self._open(metric)
        try:
            yield
        finally:
            self._close(frame)

    def _wrapper(self, metric: str) -> Callable[[Callable], Callable]:
        def make(fn: Callable) -> Callable:
            def wrapped(*args, **kwargs):
                if threading.get_ident() != self._main:
                    t0 = time.perf_counter()
                    try:
                        return fn(*args, **kwargs)
                    finally:
                        self.calls[metric] += 1
                        self.self_s[metric] += time.perf_counter() - t0
                frame = self._open(metric)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(frame)
            return wrapped
        return make

    def _open(self, metric: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        stack = self._stack
        if stack:
            parent_id, root_id = stack[-1][3], stack[-1][4]
        else:
            parent_id, root_id = 0, span_id
        frame = [metric, time.perf_counter(), 0.0, span_id, root_id, parent_id]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        metric, start, child_s = frame[0], frame[1], frame[2]
        duration = end - start
        self.calls[metric] += 1
        self.self_s[metric] += duration - child_s
        if stack:
            stack[-1][2] += duration
        else:
            self.covered_s += duration
        if self.spans is not None:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[3], metric, start, end, frame[5], frame[4]))
            else:
                self.dropped_spans += 1

    def write_spans(self, path: Path) -> None:
        """Spans as JSON lines (times in seconds from ledger creation),
        then one ``{"dropped_spans": n}`` line counting spans past
        ``MAX_SPANS`` that were not kept."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, root in self.spans or ():
                fh.write(json.dumps({
                    "id": span_id, "name": name,
                    "start": round(start - self._t0, 7),
                    "end": round(end - self._t0, 7),
                    "parent": parent, "root": root,
                }) + "\n")
            fh.write(json.dumps({"dropped_spans": self.dropped_spans}) + "\n")
