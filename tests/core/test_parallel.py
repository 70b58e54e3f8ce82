"""Point runner, result cache, and deterministic-seeding guarantees."""

import dataclasses
import os
import time

import pytest

from repro.core import (
    CS,
    ActiveMeasurement,
    FaultInjector,
    FaultPlan,
    InterferencePoint,
    InterferenceSweep,
    PointFailure,
    PointRunner,
    PointTask,
    ResultCache,
    RunnerTelemetry,
    cache_key,
    default_runner,
    point_seed,
    trial_seed,
)
from repro.errors import ConfigError, MeasurementError
from repro.units import MiB
from repro.workloads import ProbabilisticBenchmark, UniformDist


def make_probe():
    """Module-level (hence picklable) workload factory."""
    return ProbabilisticBenchmark(UniformDist(), 50 * MiB)


def make_am(xeon, **kw):
    defaults = dict(warmup_accesses=8_000, measure_accesses=6_000, seed=1)
    defaults.update(kw)
    return ActiveMeasurement(xeon, make_probe, **defaults)


def point_fields(p: InterferencePoint):
    """Every observable field of a point (everything but the raw
    MeasureResult payload)."""
    return (
        p.kind,
        p.k,
        p.makespan_ns,
        p.main_cores,
        p.l3_miss_rates,
        p.bandwidths_Bps,
        p.time_per_access_ns,
    )


def _double(x):
    """Module-level task fn (picklable for the process backend)."""
    return 2 * x


class TestPointSeed:
    def test_pure_function_of_identity(self):
        assert point_seed(7, CS, 3) == point_seed(7, CS, 3)

    def test_varies_with_every_component(self):
        base = point_seed(7, CS, 3)
        assert point_seed(8, CS, 3) != base
        assert point_seed(7, "bw", 3) != base
        assert point_seed(7, CS, 4) != base

    def test_fits_in_64_bits(self):
        assert 0 <= point_seed(0, CS, 0) < 2**64


class TestTrialSeed:
    def test_trial_zero_matches_point_seed(self):
        # Back-compat: single-trial sweeps keep their historical seeds
        # (and therefore their historical cache entries).
        assert trial_seed(7, CS, 3, 0) == point_seed(7, CS, 3)

    def test_later_trials_are_decorrelated(self):
        seeds = {trial_seed(7, CS, 3, t) for t in range(5)}
        assert len(seeds) == 5

    def test_pure_function_of_identity(self):
        assert trial_seed(7, CS, 3, 2) == trial_seed(7, CS, 3, 2)
        assert trial_seed(7, CS, 3, 2) != trial_seed(7, CS, 4, 2)
        assert 0 <= trial_seed(7, CS, 3, 2) < 2**64


class TestCacheKey:
    def test_stable_and_order_insensitive(self):
        assert cache_key(a=1, b=2.5) == cache_key(b=2.5, a=1)

    def test_sensitive_to_every_part(self):
        base = cache_key(kind=CS, k=1, seed=0)
        assert cache_key(kind=CS, k=2, seed=0) != base
        assert cache_key(kind=CS, k=1, seed=1) != base
        assert cache_key(kind="bw", k=1, seed=0) != base

    def test_hashes_nested_dataclasses(self, xeon):
        k1 = cache_key(socket=xeon)
        bigger = dataclasses.replace(
            xeon, dram_bandwidth_Bps=xeon.dram_bandwidth_Bps * 2
        )
        assert cache_key(socket=bigger) != k1

    def test_rejects_opaque_values(self):
        with pytest.raises(TypeError, match="canonicalise"):
            cache_key(fn=object())


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache_key(x=1)
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, {"v": [1, 2, 3]})
        assert key in cache
        assert cache.get(key) == {"v": [1, 2, 3]}
        assert len(cache) == 1

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        for i in range(3):
            cache.put(cache_key(i=i), i)
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache_key(x=1)
        (cache.directory / f"{key}.pkl").write_bytes(b"not a pickle")
        assert cache.get(key) is None

    def test_corrupt_entry_is_quarantined_not_retried_forever(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache_key(x=1)
        entry = cache.directory / f"{key}.pkl"
        entry.write_bytes(b"\x00CHAOS not a pickle")
        assert cache.get(key) is None
        assert cache.quarantined == 1
        assert not entry.exists()                       # moved aside...
        assert entry.with_suffix(".corrupt").exists()   # ...for forensics
        assert key not in cache
        cache.put(key, 7)                               # self-heals
        assert cache.get(key) == 7

    def test_quarantine_catches_the_full_unpickling_surface(self, tmp_path):
        # Torn pickles fail with many exception types depending on where
        # the bytes were cut; every one must read as a miss, not a crash.
        import pickle

        cache = ResultCache(tmp_path / "c")
        payload = pickle.dumps({"v": list(range(100))})
        cuts = [0, 1, 2, len(payload) // 2, len(payload) - 1]
        for i, cut in enumerate(cuts):
            key = cache_key(cut=i)
            (cache.directory / f"{key}.pkl").write_bytes(payload[:cut])
            assert cache.get(key) is None
        assert cache.quarantined == len(cuts)

    def test_clear_sweeps_tmp_and_corrupt_droppings(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put(cache_key(i=0), 0)
        (cache.directory / "dead-writer.tmp").write_bytes(b"partial")
        (cache.directory / "old.corrupt").write_bytes(b"rotten")
        assert cache.clear() == 3
        assert list(cache.directory.iterdir()) == []

    def test_stale_tmp_swept_at_construction(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        stale = d / "stale-writer.tmp"
        stale.write_bytes(b"partial")
        ancient = time.time() - 7200
        os.utime(stale, (ancient, ancient))
        fresh = d / "live-writer.tmp"
        fresh.write_bytes(b"in flight")
        cache = ResultCache(d, stale_tmp_age_s=3600.0)
        assert cache.tmp_swept == 1
        assert not stale.exists()
        assert fresh.exists()  # a live writer is not a leak


class TestPointRunner:
    def test_unknown_backend_rejected(self):
        with pytest.raises(MeasurementError, match="backend"):
            PointRunner(backend="gpu")

    def test_results_keep_input_order(self):
        runner = PointRunner()
        tasks = [PointTask(fn=_double, args=(i,)) for i in (3, 1, 2)]
        assert runner.run(tasks) == [6, 2, 4]

    def test_transient_failure_is_retried(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("worker lost")
            return "ok"

        runner = PointRunner(retries=2, backoff_s=0.0)
        assert runner.run([PointTask(fn=flaky)]) == ["ok"]
        assert len(calls) == 3
        assert runner.last_telemetry.retries == 2

    def test_measurement_error_is_not_retried(self):
        calls = []

        def bad_config():
            calls.append(1)
            raise MeasurementError("too many threads")

        runner = PointRunner(retries=5, backoff_s=0.0)
        with pytest.raises(MeasurementError, match="too many"):
            runner.run([PointTask(fn=bad_config)])
        assert len(calls) == 1

    def test_exhausted_retries_raise_with_label(self):
        def always_broken():
            raise OSError("boom")

        runner = PointRunner(retries=1, backoff_s=0.0)
        with pytest.raises(MeasurementError, match="cs:k=9"):
            runner.run([PointTask(fn=always_broken, label="cs:k=9")])
        assert runner.last_telemetry.failures == 1

    def test_pooled_timeout_counts_and_fails(self):
        runner = PointRunner(
            backend="thread", max_workers=1, retries=0, timeout_s=0.05,
        )
        with pytest.raises(MeasurementError, match="slow"):
            runner.run([PointTask(fn=time.sleep, args=(0.5,), label="slow")])
        assert runner.last_telemetry.timeouts == 1

    def test_unpicklable_task_falls_back_inline(self):
        runner = PointRunner(backend="process", max_workers=2)
        tasks = [
            PointTask(fn=_double, args=(4,)),
            PointTask(fn=lambda: "local"),  # cannot ship to a worker
        ]
        assert runner.run(tasks) == [8, "local"]
        assert runner.last_telemetry.inline_fallbacks == 1

    def test_cache_short_circuits_execution(self, tmp_path):
        calls = []

        def expensive():
            calls.append(1)
            return 42

        cache = ResultCache(tmp_path / "c")
        key = cache_key(point="p0")
        runner = PointRunner(cache=cache)
        assert runner.run([PointTask(fn=expensive, key=key)]) == [42]
        assert runner.last_telemetry.cache_misses == 1
        assert runner.run([PointTask(fn=expensive, key=key)]) == [42]
        assert runner.last_telemetry.cache_hits == 1
        assert len(calls) == 1

    def test_keyless_task_is_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        runner = PointRunner(cache=cache)
        runner.run([PointTask(fn=_double, args=(1,))])
        assert len(cache) == 0


class TestBackoffJitter:
    def test_deterministic_for_same_identity(self):
        r = PointRunner(backoff_s=0.1, backoff_seed=3)
        assert r._backoff(0, "cs:k=1") == r._backoff(0, "cs:k=1")

    def test_spreads_across_tasks_and_attempts(self):
        r = PointRunner(backoff_s=0.1)
        delays = {r._backoff(0, f"cs:k={k}") for k in range(20)}
        assert len(delays) == 20  # no two tasks retry in lockstep
        assert r._backoff(1, "p") != r._backoff(0, "p")

    def test_jitter_stays_within_half_to_threehalves_of_base(self):
        r = PointRunner(backoff_s=0.1, max_backoff_s=10.0)
        for attempt in range(4):
            base = 0.1 * 2**attempt
            for k in range(10):
                d = r._backoff(attempt, f"k={k}")
                assert 0.5 * base <= d < 1.5 * base

    def test_base_is_capped(self):
        r = PointRunner(backoff_s=1.0, max_backoff_s=2.0)
        assert r._backoff(10, "p") < 1.5 * 2.0

    def test_seed_changes_the_schedule(self):
        a = PointRunner(backoff_s=0.1, backoff_seed=0)
        b = PointRunner(backoff_s=0.1, backoff_seed=1)
        assert a._backoff(0, "p") != b._backoff(0, "p")


def _fault_plan(kind: str, label: str, hang_s: float = 30.0,
                attempts: int = 1) -> FaultPlan:
    """Smallest-seed plan scheduling ``kind`` for the first ``attempts``
    attempts of ``label`` (each attempt draws independently, so pinning
    two faulty attempts needs a seed where both draws land)."""
    for seed in range(100_000):
        plan = FaultPlan(seed=seed, fault_rate=0.3, perturb_rate=0.0,
                         hang_s=hang_s, max_faulty_attempts=attempts)
        if all(plan.disruption(label, a) == kind for a in range(attempts)):
            return plan
    raise AssertionError(f"no seed schedules {kind!r} x{attempts}")


class TestFaultDrivenRunnerPaths:
    """ISSUE satellite: the timeout and process-pool-crash paths,
    exercised deterministically by injected hang/crash faults."""

    def test_injected_hang_trips_pooled_timeout_then_recovers(self):
        label = "cs:k=4"
        inj = FaultInjector(plan=_fault_plan("hang", label, hang_s=0.5))
        # Two workers: the hung attempt-0 thread cannot be preempted, so
        # the retry needs a free slot to run on.
        runner = PointRunner(
            backend="thread", max_workers=2, retries=1, backoff_s=0.0,
            timeout_s=0.05, injector=inj,
        )
        assert runner.run([PointTask(fn=_double, args=(3,), label=label)]) == [6]
        tele = runner.last_telemetry
        assert tele.timeouts == 1   # attempt 0 hung past the limit
        assert tele.retries == 1    # attempt 1 ran clean
        assert tele.failures == 0
        assert inj.stats.hangs == 1

    def test_injected_hang_exhausting_retries_identifies_the_point(self):
        label = "cs:k=5"
        inj = FaultInjector(
            plan=_fault_plan("hang", label, hang_s=0.3, attempts=2)
        )
        runner = PointRunner(
            backend="thread", max_workers=2, retries=1, backoff_s=0.0,
            timeout_s=0.05, injector=inj,
        )
        with pytest.raises(MeasurementError, match="cs:k=5.*2 attempts"):
            runner.run([PointTask(fn=_double, args=(3,), label=label)])
        assert runner.last_telemetry.timeouts == 2
        assert runner.last_telemetry.failures == 1

    def test_injected_crash_breaks_the_pool_then_recovers(self):
        label = "cs:k=6"
        inj = FaultInjector(plan=_fault_plan("crash", label))
        runner = PointRunner(
            backend="process", max_workers=1, retries=1, backoff_s=0.0,
            injector=inj,
        )
        assert runner.run([PointTask(fn=_double, args=(5,), label=label)]) == [10]
        tele = runner.last_telemetry
        assert tele.retries == 1    # pool was rebuilt and the point redone
        assert tele.failures == 0

    def test_injected_crash_exhausting_retries_identifies_the_point(self):
        label = "cs:k=7"
        inj = FaultInjector(plan=_fault_plan("crash", label, attempts=2))
        runner = PointRunner(
            backend="process", max_workers=1, retries=1, backoff_s=0.0,
            injector=inj,
        )
        with pytest.raises(MeasurementError, match="cs:k=7"):
            runner.run([PointTask(fn=_double, args=(5,), label=label)])
        assert runner.last_telemetry.failures == 1

    def test_serial_crash_fault_is_retried_like_a_lost_worker(self):
        label = "cs:k=8"
        inj = FaultInjector(plan=_fault_plan("crash", label))
        runner = PointRunner(retries=1, backoff_s=0.0, injector=inj)
        assert runner.run([PointTask(fn=_double, args=(2,), label=label)]) == [4]
        assert runner.last_telemetry.retries == 1
        assert inj.stats.crashes == 1


class TestFailSoft:
    def test_gap_marker_instead_of_abort(self):
        def broken():
            raise OSError("dead")

        runner = PointRunner(retries=0, fail_soft=True)
        ok = PointTask(fn=_double, args=(1,), label="good")
        bad = PointTask(fn=broken, label="cs:k=3")
        results = runner.run([ok, bad])
        assert results[0] == 2
        gap = results[1]
        assert isinstance(gap, PointFailure)
        assert not gap                     # falsy: filter(None, ...) drops it
        assert gap.label == "cs:k=3"
        assert "dead" in gap.error
        tele = runner.last_telemetry
        assert tele.gaps == 1 and tele.failures == 1

    def test_per_run_override_beats_constructor_default(self):
        def broken():
            raise OSError("dead")

        runner = PointRunner(retries=0, fail_soft=True)
        with pytest.raises(MeasurementError):
            runner.run([PointTask(fn=broken)], fail_soft=False)

    def test_measurement_error_still_propagates_under_fail_soft(self):
        def bad_config():
            raise MeasurementError("bad windows")

        runner = PointRunner(retries=0, fail_soft=True)
        with pytest.raises(MeasurementError, match="bad windows"):
            runner.run([PointTask(fn=bad_config)])


class TestQuarantineTelemetry:
    def test_runner_counts_quarantined_entries(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = cache_key(p=1)
        (cache.directory / f"{key}.pkl").write_bytes(b"rotten")
        runner = PointRunner(cache=cache)
        assert runner.run([PointTask(fn=_double, args=(4,), key=key)]) == [8]
        assert runner.last_telemetry.quarantines == 1
        # The re-measured value replaced the quarantined one.
        assert cache.get(key) == 8


class TestSweepParity:
    def test_process_sweep_bit_identical_to_serial(self, xeon):
        serial = make_am(xeon)
        parallel = make_am(
            xeon, runner=PointRunner(backend="process", max_workers=2)
        )
        ks = [0, 2, 4]
        want = [point_fields(p) for p in serial.capacity_sweep(ks).points]
        got = [point_fields(p) for p in parallel.capacity_sweep(ks).points]
        assert got == want

    def test_thread_sweep_bit_identical_to_serial(self, xeon):
        serial = make_am(xeon)
        parallel = make_am(
            xeon, runner=PointRunner(backend="thread", max_workers=2)
        )
        ks = [0, 1]
        want = [point_fields(p) for p in serial.bandwidth_sweep(ks).points]
        got = [point_fields(p) for p in parallel.bandwidth_sweep(ks).points]
        assert got == want

    def test_per_point_seeds_stay_deterministic(self, xeon):
        a = make_am(xeon, per_point_seeds=True)
        b = make_am(
            xeon, per_point_seeds=True,
            runner=PointRunner(backend="process", max_workers=2),
        )
        ks = [0, 3]
        assert [point_fields(p) for p in a.capacity_sweep(ks).points] == [
            point_fields(p) for p in b.capacity_sweep(ks).points
        ]


class TestSweepCache:
    def test_warm_sweep_hits_for_every_point(self, xeon, tmp_path):
        cache = ResultCache(tmp_path / "c")
        am = make_am(xeon, runner=PointRunner(cache=cache))
        cold = am.capacity_sweep(ks=[0, 2])
        assert am.runner.last_telemetry.cache_misses == 2
        warm = am.capacity_sweep(ks=[0, 2])
        assert am.runner.last_telemetry.cache_hits == 2
        assert [point_fields(p) for p in warm.points] == [
            point_fields(p) for p in cold.points
        ]

    def test_changed_seed_misses(self, xeon, tmp_path):
        cache = ResultCache(tmp_path / "c")
        make_am(xeon, seed=1, runner=PointRunner(cache=cache)).capacity_sweep(
            ks=[0]
        )
        am2 = make_am(xeon, seed=2, runner=PointRunner(cache=cache))
        am2.capacity_sweep(ks=[0])
        assert am2.runner.last_telemetry.cache_hits == 0
        assert am2.runner.last_telemetry.cache_misses == 1

    def test_changed_socket_config_misses(self, xeon, tmp_path):
        cache = ResultCache(tmp_path / "c")
        make_am(xeon, runner=PointRunner(cache=cache)).capacity_sweep(ks=[0])
        other = dataclasses.replace(
            xeon, dram_bandwidth_Bps=xeon.dram_bandwidth_Bps * 2
        )
        am2 = make_am(other, runner=PointRunner(cache=cache))
        am2.capacity_sweep(ks=[0])
        assert am2.runner.last_telemetry.cache_hits == 0

    def test_explicit_workload_spec_drives_the_key(self, xeon, tmp_path):
        cache = ResultCache(tmp_path / "c")
        a = make_am(
            xeon, workload_spec="probe-v1", runner=PointRunner(cache=cache)
        )
        a.capacity_sweep(ks=[0])
        b = make_am(
            xeon, workload_spec="probe-v2", runner=PointRunner(cache=cache)
        )
        b.capacity_sweep(ks=[0])
        assert b.runner.last_telemetry.cache_hits == 0


class TestSweepRegressions:
    def test_duplicate_ks_rejected(self, xeon):
        am = make_am(xeon)
        with pytest.raises(MeasurementError, match="duplicate"):
            am.capacity_sweep(ks=[0, 1, 1])

    def test_duplicate_points_rejected_on_construction(self):
        def pt(k):
            return InterferencePoint(
                kind=CS, k=k, makespan_ns=1.0, main_cores=[0],
                l3_miss_rates={}, bandwidths_Bps={}, time_per_access_ns=1.0,
            )

        with pytest.raises(MeasurementError, match="duplicate"):
            InterferenceSweep(CS, [pt(1), pt(1)])

    def test_run_point_carries_result_payload(self, xeon):
        p = make_am(xeon).run_point(CS, 1)
        assert p.require_result() is p.result

    def test_summary_point_has_no_payload(self):
        p = InterferencePoint(
            kind=CS, k=0, makespan_ns=1.0, main_cores=[0],
            l3_miss_rates={}, bandwidths_Bps={}, time_per_access_ns=1.0,
        )
        assert p.result is None
        with pytest.raises(MeasurementError, match="no"):
            p.require_result()


@pytest.mark.slow
class TestAcceptance:
    def test_four_worker_csthr_sweep_matches_serial_and_replays_fast(
        self, xeon, tmp_path
    ):
        """ISSUE acceptance: a 6-point CSThr sweep with 4 workers is
        bit-identical to the serial path, and a warm-cache replay is far
        cheaper than the cold serial wall-clock. (The replay bound was
        10% against the list kernel's cold time; the array kernel made
        the cold baseline ~7x smaller, so the replay's fixed process-pool
        startup now needs a proportionally looser ratio.)"""
        ks = [0, 1, 2, 3, 4, 5]

        serial = make_am(xeon)
        t0 = time.perf_counter()
        base = serial.capacity_sweep(ks)
        cold_serial_s = time.perf_counter() - t0

        cache = ResultCache(tmp_path / "cache")
        hot = make_am(
            xeon,
            runner=PointRunner(backend="process", max_workers=4, cache=cache),
        )
        sweep = hot.capacity_sweep(ks)
        assert [point_fields(p) for p in sweep.points] == [
            point_fields(p) for p in base.points
        ]

        warm = make_am(
            xeon,
            runner=PointRunner(backend="process", max_workers=4, cache=cache),
        )
        t0 = time.perf_counter()
        replay = warm.capacity_sweep(ks)
        warm_s = time.perf_counter() - t0
        assert warm.runner.last_telemetry.cache_hits == len(ks)
        assert [point_fields(p) for p in replay.points] == [
            point_fields(p) for p in base.points
        ]
        assert warm_s < 0.40 * cold_serial_s


class TestDefaultRunnerEnv:
    """``default_runner`` rejects bad runner environment values instead
    of quietly falling back to a serial one-worker runner."""

    @pytest.fixture(autouse=True)
    def _clean_env(self, monkeypatch):
        for var in ("REPRO_WORKERS", "REPRO_RUNNER_BACKEND", "REPRO_CACHE_DIR",
                    "REPRO_JOURNAL", "REPRO_FAULT_SEED", "REPRO_POINT_TIMEOUT_S"):
            monkeypatch.delenv(var, raising=False)

    def test_unset_and_blank_give_a_serial_runner(self, monkeypatch):
        assert default_runner().backend == "serial"
        monkeypatch.setenv("REPRO_WORKERS", " ")
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", "")
        assert default_runner().backend == "serial"

    def test_valid_values_are_honoured(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        runner = default_runner()
        assert (runner.backend, runner.max_workers) == ("process", 3)
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", "thread")
        assert default_runner().backend == "thread"

    @pytest.mark.parametrize("value", ["turbo", "batched"])
    def test_unknown_backend_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_RUNNER_BACKEND", value)
        with pytest.raises(ConfigError) as exc:
            default_runner()
        msg = str(exc.value)
        assert "REPRO_RUNNER_BACKEND" in msg and repr(value) in msg
        for choice in ("'serial'", "'thread'", "'process'"):
            assert choice in msg

    @pytest.mark.parametrize("value", ["lots", "2.5", "-1"])
    def test_bad_worker_count_rejected(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_WORKERS", value)
        with pytest.raises(ConfigError) as exc:
            default_runner()
        msg = str(exc.value)
        assert "REPRO_WORKERS" in msg and repr(value) in msg
        assert "non-negative integer" in msg


class TestCachePutDurability:
    """ISSUE satellite: ``ResultCache.put`` must fsync the temp file
    *before* the atomic rename — ``os.replace`` makes the name durable,
    not the bytes."""

    def test_fsync_precedes_rename(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c")
        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync",
            lambda fd: (calls.append("fsync"), real_fsync(fd))[1],
        )
        monkeypatch.setattr(
            os, "replace",
            lambda a, b: (calls.append("replace"), real_replace(a, b))[1],
        )
        key = cache_key(point="durable")
        cache.put(key, {"v": 1})
        assert calls == ["fsync", "replace"]
        assert cache.get(key) == {"v": 1}

    def test_failed_fsync_aborts_the_put_cleanly(self, tmp_path, monkeypatch):
        cache = ResultCache(tmp_path / "c")

        def no_disk(fd):
            raise OSError("fsync: no space left on device")

        monkeypatch.setattr(os, "fsync", no_disk)
        key = cache_key(point="doomed")
        with pytest.raises(OSError, match="no space"):
            cache.put(key, 42)
        # Neither a half-written entry nor a leaked temp file remains.
        assert cache.get(key) is None
        assert not list((tmp_path / "c").glob("*.tmp"))


def _die_once(sentinel: str, x: int) -> int:
    """Pool worker that hard-kills its process on the first call ever
    (across processes, via a sentinel file), then behaves."""
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as fh:
            fh.write("died")
        os._exit(1)
    return 2 * x


def _die_in_child(parent_pid: int, x: int) -> int:
    """Hard-kills any pool worker; runs clean inline in the parent."""
    if os.getpid() != parent_pid:
        os._exit(1)
    return 2 * x


class TestPoolRestarts:
    """ISSUE satellite: on ``BrokenProcessPool`` the runner rebuilds the
    pool at most ``max_pool_restarts`` times (telemetered), then falls
    back to serial execution instead of failing the batch."""

    def test_worker_that_dies_once_costs_one_restart(self, tmp_path):
        sentinel = str(tmp_path / "died-once")
        runner = PointRunner(
            backend="process", max_workers=1, retries=1, backoff_s=0.0,
        )
        tasks = [PointTask(fn=_die_once, args=(sentinel, 21), label="cs:k=1")]
        assert runner.run(tasks) == [42]
        tele = runner.last_telemetry
        assert tele.pool_restarts == 1
        assert tele.retries == 1
        assert tele.failures == 0

    def test_exhausted_restart_budget_falls_back_to_serial(self):
        runner = PointRunner(
            backend="process", max_workers=1, retries=0, backoff_s=0.0,
            max_pool_restarts=0,
        )
        tasks = [
            PointTask(fn=_die_in_child, args=(os.getpid(), v),
                      label=f"cs:k={v}")
            for v in (1, 2)
        ]
        assert runner.run(tasks) == [2, 4]
        tele = runner.last_telemetry
        assert tele.pool_restarts == 0       # budget was zero
        assert tele.inline_fallbacks == 2    # both ran serially instead
        assert tele.failures == 0

    def test_restart_budget_is_validated_and_telemetered(self):
        with pytest.raises(MeasurementError, match="max_pool_restarts"):
            PointRunner(max_pool_restarts=-1)
        tele = RunnerTelemetry(pool_restarts=2)
        other = RunnerTelemetry(pool_restarts=3)
        tele.merge(other)
        assert tele.pool_restarts == 5
        assert "5 pool restarts" in tele.summary()


class TestThreadTimeoutAbandonment:
    """ISSUE satellite: a timed-out thread attempt is counted in
    ``timeouts`` and the abandoned thread can never write into a
    finished batch's result slots."""

    def test_abandoned_thread_cannot_write_finished_slots(self):
        import threading

        release = threading.Event()
        attempts = []
        lock = threading.Lock()

        def hang_then_good():
            with lock:
                attempts.append(1)
                n = len(attempts)
            if n == 1:
                # Attempt 0: hang far past the timeout, then produce a
                # stale value nobody should ever see.
                release.wait(10.0)
                return "stale-late-value"
            return "good"

        runner = PointRunner(
            backend="thread", max_workers=2, retries=1, backoff_s=0.0,
            timeout_s=0.05,
        )
        results = runner.run([PointTask(fn=hang_then_good, label="cs:k=3")])
        assert results == ["good"]
        assert runner.last_telemetry.timeouts == 1
        assert runner.last_telemetry.retries == 1
        # Let the abandoned thread finish; its return value must vanish
        # rather than clobber the finished batch's slot.
        release.set()
        time.sleep(0.2)
        assert results == ["good"]

    def test_hang_past_all_retries_fails_with_timeout_count(self):
        import threading

        release = threading.Event()

        def hangs_forever():
            release.wait(10.0)
            return "never"

        runner = PointRunner(
            backend="thread", max_workers=4, retries=1, backoff_s=0.0,
            timeout_s=0.05,
        )
        try:
            with pytest.raises(MeasurementError, match="cs:k=4"):
                runner.run([PointTask(fn=hangs_forever, label="cs:k=4")])
            assert runner.last_telemetry.timeouts == 2
            assert runner.last_telemetry.failures == 1
        finally:
            release.set()
