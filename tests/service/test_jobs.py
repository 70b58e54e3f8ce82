"""Declarative job specs: validation, identity, round-trips."""

import pytest

from repro.errors import ServiceError
from repro.service import JobSpec
from repro.service.jobs import resolve_app, resolve_preset


def make_spec(**overrides):
    base = dict(app="probe", preset="tiny", kind="cs", ks=(0, 1, 2),
                warmup_accesses=2_000, measure_accesses=1_000)
    base.update(overrides)
    return JobSpec(**base)


class TestValidation:
    def test_unknown_app_rejected_at_construction(self):
        with pytest.raises(ServiceError, match="unknown app profile"):
            make_spec(app="nope")

    def test_unknown_preset_rejected(self):
        with pytest.raises(ServiceError, match="unknown socket preset"):
            make_spec(preset="nope")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown sweep kind"):
            make_spec(kind="xx")

    def test_empty_and_duplicate_ks_rejected(self):
        with pytest.raises(ServiceError, match="at least one k"):
            make_spec(ks=())
        with pytest.raises(ServiceError, match="duplicate"):
            make_spec(ks=(0, 1, 1))

    def test_negative_k_rejected(self):
        with pytest.raises(ServiceError, match="non-negative"):
            make_spec(ks=(0, -1))

    def test_non_scalar_app_param_rejected(self):
        with pytest.raises(ServiceError, match="must be a scalar"):
            make_spec(app_params={"dist": ["zipf"]})

    def test_resolvers_raise_on_unknown_names(self):
        with pytest.raises(ServiceError):
            resolve_preset("nope")
        with pytest.raises(ServiceError):
            resolve_app("nope", {})


class TestIdentity:
    def test_equal_specs_share_config_key(self):
        assert make_spec().config_key() == make_spec().config_key()

    def test_config_key_is_pinned(self):
        # The key names every cache entry, journal and job id: a layout
        # change that moves it orphans all of them.
        assert make_spec().config_key() == (
            "532dafb0bcfe9b8241a1179cfcb46198242a8e85204f804235e0e47b795b9804"
        )
        assert list(make_spec().to_dict()) == [
            "app", "preset", "kind", "ks", "seed", "warmup_accesses",
            "measure_accesses", "app_params",
        ]

    def test_any_field_change_changes_key(self):
        base = make_spec().config_key()
        assert make_spec(seed=1).config_key() != base
        assert make_spec(ks=(0, 1)).config_key() != base
        assert make_spec(app_params={"dist": "zipf"}).config_key() != base

    def test_round_trip_preserves_identity(self):
        spec = make_spec(app_params={"dist": "zipf", "buffer_bytes": 1 << 20})
        again = JobSpec.from_dict(spec.to_dict())
        assert again == spec
        assert again.config_key() == spec.config_key()

    def test_scheduling_knobs_do_not_change_measurement_identity(self):
        # Specs logged before queue format 3 carry the withdrawn
        # priority/deadline_s knobs; they replay as the same measurement.
        old = dict(make_spec().to_dict(), priority=5, deadline_s=30.0)
        again = JobSpec.from_dict(old)
        assert again == make_spec()
        assert again.config_key() == make_spec().config_key()

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ServiceError, match="malformed job spec"):
            JobSpec.from_dict({"app": "probe"})


class TestExecution:
    def test_build_measurement_runs_the_declared_sweep(self):
        spec = make_spec(ks=(0, 1))
        sweep = spec.build_measurement().sweep(spec.kind, spec.ks)
        assert [p.k for p in sweep.points] == [0, 1]

    def test_every_registered_app_profile_builds(self):
        from repro.service import APP_PROFILES

        for app in APP_PROFILES:
            spec = make_spec(app=app, ks=(0,))
            am = spec.build_measurement()
            assert am.workload_spec == spec.workload_spec()
