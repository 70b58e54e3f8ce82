"""Experiment drivers produce well-formed, paper-shaped records.

The heavier grids are shrunk via monkeypatching the grid definitions so
the whole file stays test-suite friendly; ``scripts/check_records.py``
runs the real smoke/paper grids, and ``test_paper_shapes.py`` checks the
committed records' paper shapes.
"""

import pytest

from repro.analysis import ExperimentRecord
from repro.experiments import (
    ablations,
    common,
    run_calibration,
    run_fig5,
    run_fig6,
    run_fig7_fig8,
    run_fig9,
    run_fig10,
    run_fig11,
)
from repro.experiments import fig5 as fig5_mod
from repro.experiments import fig6 as fig6_mod


@pytest.fixture
def micro(monkeypatch):
    """Shrink every grid to near-minimum."""
    monkeypatch.setattr(common, "probe_buffer_sizes_mb", lambda mode=None: [30, 74])
    monkeypatch.setattr(common, "distribution_names", lambda mode=None: ["Uni"])
    monkeypatch.setattr(common, "ops_per_load", lambda mode=None: [1])
    monkeypatch.setattr(common, "csthr_counts", lambda mode=None: [0, 4])
    monkeypatch.setattr(common, "bwthr_counts", lambda mode=None: [0, 2])
    monkeypatch.setattr(common, "mcb_particle_counts", lambda mode=None: [20_000])
    monkeypatch.setattr(common, "mcb_mappings", lambda mode=None: [1])
    monkeypatch.setattr(common, "lulesh_edges", lambda mode=None: [36])
    monkeypatch.setattr(common, "lulesh_mappings", lambda mode=None: [1])

    def tiny_env(mode=None, seed=0):
        return common.ExperimentEnv(
            socket=common.xeon20mb(),
            mode=common.resolve_mode(mode),
            warmup_accesses=45_000,
            measure_accesses=15_000,
            seed=seed,
        )

    monkeypatch.setattr(common, "default_env", tiny_env)
    return monkeypatch


@pytest.mark.slow
class TestFig5(object):
    def test_record_shape_and_error_band(self, micro):
        rec = run_fig5()
        assert isinstance(rec, ExperimentRecord)
        assert rec.data["sizes_mb"] == [30, 74]
        assert len(rec.data["mean_abs_error"]) == 2
        # Paper headline: mean error under 10% (Uni probe, micro windows).
        assert max(rec.data["mean_abs_error"]) < 0.12
        assert fig5_mod.render(rec)  # renders without error


@pytest.mark.slow
class TestFig6(object):
    def test_capacity_ladder_decreases(self, micro):
        rec = run_fig6()
        ladder = rec.data["capacity_ladder_mb"]
        assert ladder["4"] < ladder["0"]
        # k=0 must be within 30% of the nominal 20 MB.
        assert ladder["0"] == pytest.approx(20.0, rel=0.3)
        assert fig6_mod.render(rec)


@pytest.mark.slow
class TestFig7Fig8(object):
    def test_orthogonality_headline(self, micro):
        rec = run_fig7_fig8()
        assert rec.data["bwthr_flat"]
        assert rec.data["capacity_neutral_bwthrs"] >= 1
        assert rec.data["csthr_solo_bandwidth_GBps"] < 0.3


@pytest.mark.slow
class TestCalibration(object):
    def test_paper_anchors(self, micro):
        rec = run_calibration()
        assert rec.data["bwthr_unit_GBps"] == pytest.approx(2.8, rel=0.25)
        assert rec.data["stream_peak_GBps"] == pytest.approx(17.0, rel=0.25)
        assert 5 <= rec.data["threads_to_saturate"] <= 9


@pytest.mark.slow
class TestAppFigures(object):
    def test_fig9_records_sweeps(self, micro):
        rec = run_fig9()
        top = rec.data["top_times_ns"]
        assert "1" in top
        assert set(top["1"]) == {"cs", "bw"}
        base = top["1"]["cs"]["0"]
        assert all(t >= base * 0.95 for t in top["1"]["cs"].values())

    def test_fig11_large_domain_degrades(self, micro):
        rec = run_fig11()
        bottom = rec.data["bottom_times_ns"]["36"]
        assert bottom["cs"]["4"] > bottom["cs"]["0"] * 1.02

    def test_fig10_use_table_shape(self, micro):
        rec = run_fig10()
        table = rec.data["use_tables"]["20000"]
        entry = table["1"]
        assert entry["capacity_mb"]["lower"] <= entry["capacity_mb"]["upper"]
        assert "bandwidth_GBps" in entry


@pytest.mark.slow
class TestAblations(object):
    def test_prefetch_ablation_shows_benefit(self, micro):
        rec = ablations.run_prefetch_ablation()
        assert rec.data["bwthr_unit_GBps"]["0"] < rec.data["bwthr_unit_GBps"]["6"]

    def test_replacement_ablation_close_to_eq4(self, micro):
        rec = ablations.run_replacement_ablation()
        lru = rec.data["miss_rate"]["lru"]
        assert lru == pytest.approx(rec.data["eq4_prediction"], abs=0.05)

    def test_bwthr_capacity_ablation_monotone(self, micro):
        rec = ablations.run_bwthr_capacity_ablation()
        occ = rec.data["occupancy"]
        assert occ["5"]["csthr_l3_fraction"] <= occ["1"]["csthr_l3_fraction"]
