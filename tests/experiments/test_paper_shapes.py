"""The paper's evaluation as shapes: one check per ``repro list`` experiment.

Each entry of :data:`SHAPES` asserts, on one experiment record, the shape
the paper reports: Fig. 6's 20/15/12/7/5/2.5 MB capacity ladder, the
CSThr onset at 3+ BWThrs of Fig. 8, the per-mapping brackets of
Figs. 9-12, and the extensions' own claims. This module runs every entry
on the committed smoke record under ``results/``;
``scripts/check_records.py`` imports the same table and runs it on the
records it regenerates, in any mode.
"""

from pathlib import Path

import pytest

from repro.analysis import ExperimentRecord
from repro.experiments import EXPERIMENTS

RESULTS = Path(__file__).resolve().parents[2] / "results"

#: ``repro list`` name -> shape check: a function of the experiment's
#: record that raises ``AssertionError`` when the shape is lost.
SHAPES = {}


def shape(name):
    def register(check):
        assert name not in SHAPES, f"two shape checks for {name}"
        SHAPES[name] = check
        return check

    return register


@shape("calibration")
def calibration(record):
    """Table I + Sections II-A/III-A/III-C3: BWThr = 2.8 GB/s, STREAM =
    17 GB/s, 7 threads saturate, capacity ladder 20/15/12/7/5/2.5 MB."""
    # Shape assertions: the reproduction must preserve the paper's anchors.
    assert record.data["bwthr_unit_GBps"] == pytest.approx(2.8, rel=0.25)
    assert record.data["stream_peak_GBps"] == pytest.approx(17.0, rel=0.25)
    ladder = record.data["capacity_ladder_mb"]
    assert ladder["5"] < ladder["3"] < ladder["1"] < ladder["0"]


@shape("fig5")
def fig5(record):
    """Fig. 5: mean error < 10% everywhere; mean+sigma <= 15%; error
    shrinks as buffers grow."""
    errs = record.data["mean_abs_error"]
    sig = record.data["std_abs_error"]
    assert max(errs) < 0.12
    assert max(e + s for e, s in zip(errs, sig)) < 0.2
    # Error at the largest buffer must not exceed the smallest-buffer error.
    assert errs[-1] <= errs[0] + 0.02


@shape("fig6")
def fig6(record):
    """Fig. 6: a monotone ladder whose k=1..3 rungs land within ~25% of
    the paper's 15/12/7 MB."""
    ladder = {int(k): v for k, v in record.data["capacity_ladder_mb"].items()}
    assert all(ladder[k + 1] < ladder[k] for k in range(5))
    assert ladder[1] == pytest.approx(15.0, rel=0.25)
    assert ladder[2] == pytest.approx(12.0, rel=0.25)
    assert ladder[3] == pytest.approx(7.0, rel=0.35)


@shape("fig7_fig8")
def fig7_fig8(record):
    """Figs. 7-8: BWThr flat under 0-5 CSThrs; CSThr unaffected by 1
    BWThr, slightly by 2, significantly by 3+."""
    assert record.data["bwthr_flat"]
    assert record.data["capacity_neutral_bwthrs"] >= 1
    f8 = record.data["fig8"]["csthr_time_per_access_ns"]
    # CSThr at 5 BWThrs is significantly slower than alone; at 1 it is not.
    assert f8[1] < f8[0] * 1.05
    assert f8[5] > f8[0] * 1.15


@shape("fig9")
def fig9(record):
    """Fig. 9: little degradation with 1-3 CSThrs, 20-25% with 4-5."""
    bottom = record.data["bottom_times_ns"]
    for n, kinds in bottom.items():
        cs = kinds["cs"]
        base = cs["0"]
        # Little degradation through 3 CSThrs...
        assert cs["3"] < base * 1.06
        # ...significant at 5.
        assert cs["5"] > base * 1.08


@shape("fig10")
def fig10(record):
    """Fig. 10: MCB capacity use ~3.75-7 MB/process regardless of
    mapping; bandwidth use rises as processes spread out."""
    table = record.data["use_tables"]["20000"]
    p1 = table["1"]
    # Capacity bracket overlaps the paper's 4-7 MB.
    assert p1["capacity_mb"]["upper"] >= 4.0
    assert p1["capacity_mb"]["lower"] <= 9.0
    if "4" in table:
        p4 = table["4"]
        # Bandwidth per process falls as processes share a socket.
        assert (
            p4["bandwidth_GBps"]["upper"] < p1["bandwidth_GBps"]["upper"]
        )


@shape("fig11")
def fig11(record):
    """Fig. 11: 22^3 tolerates 1-2 CSThrs (<5%) and loses >10% at 5;
    domains of edge >= 32 degrade >10% under 1-2 BWThrs."""
    bottom = record.data["bottom_times_ns"]
    small = bottom[min(bottom, key=int)]
    large = bottom[max(bottom, key=int)]
    # Small domains shrug off 2 CSThrs; large ones do not shrug off 5.
    assert small["cs"]["2"] < small["cs"]["0"] * 1.05
    assert large["cs"]["5"] > large["cs"]["0"] * 1.10
    # Large domains are bandwidth sensitive; small ones are not.
    assert large["bw"]["2"] > large["bw"]["0"] * 1.05
    assert small["bw"]["2"] < small["bw"]["0"] * 1.05


@shape("fig12")
def fig12(record):
    """Fig. 12: 22^3 processes need ~3.5-7 MB; 36^3 processes 7-20 MB."""
    tables = record.data["use_tables"]
    small = tables["22"]["1"]["capacity_mb"]
    large = tables["36"]["1"]["capacity_mb"]
    # The bigger domain needs more cache (paper: 3.5-7 vs 7-20 MB).
    assert large["upper"] >= small["upper"]
    assert small["upper"] <= 9.0


@shape("related_work")
def related_work(record):
    """Section V: the bubble probe cannot decompose; the 2-D probes can."""
    curves = record.data["slowdown_curves"]
    cap, bw = curves["capacity_victim"], curves["bandwidth_victim"]
    # The bubble degrades both victims along its single knob.
    assert cap["bubble"][-1] > 1.1 and bw["bubble"][-1] > 1.1
    # The 2-D probes produce opposite signatures:
    #   capacity victim: storage onset at k=5, bandwidth flat at k=1.
    assert cap["cs"][-1] > 1.08
    assert cap["bw"][1] < 1.02
    #   bandwidth victim: bandwidth onset by k<=2, storage flat at k=3.
    assert bw["bw"][-1] > 1.03
    assert bw["cs"][1] < 1.03


@shape("ablation_prefetch")
def ablation_prefetch(record):
    unit = record.data["bwthr_unit_GBps"]
    # The prefetcher is what lifts BWThr toward 2.8 GB/s.
    assert unit["6"] > 1.4 * unit["0"]


@shape("ablation_replacement")
def ablation_replacement(record):
    rates = record.data["miss_rate"]
    assert rates["lru"] == pytest.approx(record.data["eq4_prediction"], abs=0.05)
    # All policies within a few points of each other in the uniform regime.
    assert max(rates.values()) - min(rates.values()) < 0.06


@shape("ablation_scale")
def ablation_scale(record):
    ladders = record.data["ladders_mb"]
    for k in ("0", "1", "3", "5"):
        assert ladders["1/16"][k] == pytest.approx(ladders["1/32"][k], rel=0.35, abs=1.5)


@shape("ablation_bwthr_capacity")
def ablation_bwthr_capacity(record):
    occ = record.data["occupancy"]
    # CSThr's retained share shrinks monotonically with more BWThrs.
    shares = [occ[k]["csthr_l3_fraction"] for k in sorted(occ, key=int)]
    assert all(b <= a + 0.02 for a, b in zip(shares, shares[1:]))


@shape("ablation_noise")
def ablation_noise(record):
    inflation = record.data["noise_inflation"]
    ns = sorted(inflation, key=int)
    # Amplification grows monotonically with job scale.
    values = [inflation[n] for n in ns]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] > values[0]


@shape("ablation_model_vs_trace")
def ablation_model_vs_trace(record):
    worst = max(
        v for dist in record.data["abs_error"].values() for v in dist.values()
    )
    # Eq. 4 tracks stack-distance ground truth within ~10 miss-rate points.
    assert worst < 0.12


@shape("ablation_sampling")
def ablation_sampling(record):
    worst = max(
        v for d in record.data["abs_error_vs_full"].values() for v in d.values()
    )
    # Sampling 1/32 of sets must track the full miss ratio closely.
    assert worst < 0.04


@shape("ablation_quantum")
def ablation_quantum(record):
    caps = list(record.data["effective_capacity_mb"].values())
    # The inverted capacity must be quantum-insensitive (within ~1.5 MB).
    assert max(caps) - min(caps) < 1.5


@shape("ablation_writeback")
def ablation_writeback(record):
    off = record.data["results"]["off"]
    on = record.data["results"]["on"]
    # Throttling writebacks can only reduce effective STREAM bandwidth.
    assert on["stream_peak_GBps"] <= off["stream_peak_GBps"] * 1.02
    # Throttling makes write-heavy interference strictly harsher; the
    # effect is material (this is why the choice is documented) but must
    # stay within small-multiple territory.
    ratio = on["csthr_under_5bw_ns_per_access"] / off["csthr_under_5bw_ns_per_access"]
    assert 0.9 < ratio < 3.5


@shape("detection_accuracy")
def detection_accuracy(record):
    """Extension: the full Active Measurement pipeline against working
    sets known by construction."""
    assert record.data["containment_rate"] >= 0.67
    # Measured brackets must be ordered consistently with the truth:
    results = record.data["results"]
    sizes = sorted(results, key=int)
    lowers = [results[s]["measured_lower_mb"] for s in sizes]
    assert all(b >= a for a, b in zip(lowers, lowers[1:]))


@shape("colocation")
def colocation(record):
    """Extension: co-location advice verified against simulated co-runs."""
    # Predictions must track ground truth within ~0.2 worst-slowdown on
    # average, and QoS verdicts must mostly agree.
    assert record.data["mean_abs_error"] < 0.2
    assert record.data["qos_agreement"] >= 0.6
    # No prediction may be *optimistic* by more than 5% (a QoS advisor
    # must err conservative).
    for pair, r in record.data["pairs"].items():
        assert r["predicted_worst"] >= r["simulated_worst"] - 0.05, pair


@shape("robustness")
def robustness(record):
    """Extension: the rank-test onset detector suppresses the fixed 5%
    rule's false onsets under heavy-tailed noise without losing real
    ones."""
    levels = record.data["noise_levels"]
    for name, r in levels.items():
        # The statistical detector must never false-fire more than the
        # naive rule, and must hold its false rate near alpha.
        assert r["robust_false_rate"] <= r["naive_false_rate"], name
        assert r["robust_false_rate"] <= 0.05, name
    # Under heavy noise the naive rule degenerates; robust must not.
    assert levels["hostile"]["naive_false_rate"] >= 0.25
    assert levels["hostile"]["robust_false_rate"] <= 0.05
    # Real onsets still get found in quiet conditions.
    assert levels["quiet"]["robust_detect_rate"] >= 0.85


@shape("numa")
def numa(rec):
    """Extension: on a 2-socket node, same-socket BWThrs slow a victim
    more than remote ones, and a remote pointer chase pays extra
    latency (the NUMA STREAM asymmetry)."""
    rows = rec.data["interference_slowdown"]
    assert rows, "no interference sweep recorded"
    for k, row in rows.items():
        assert row["local"] > row["remote"], (k, row)
    assert rec.data["chase_remote_extra_ns"] > 0.0


def committed(name):
    """The committed smoke record of experiment ``name``."""
    record_id = "related_work_bubble" if name == "related_work" else name
    return ExperimentRecord.load(RESULTS / f"{record_id}.json")


def test_one_shape_check_per_experiment():
    assert sorted(SHAPES) == sorted(EXPERIMENTS)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_committed_smoke_record_has_the_paper_shape(name):
    SHAPES[name](committed(name))
