"""Self-test of the end-to-end benchmark harness, at the tiny scale.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Checks that every metric BENCHMARK.json names is reported with its
unit, that tracing changes no output and leaves no wrapper behind, and
that a wrong reference digest or a checkout without sources fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import run as perf_run  # noqa: E402
from ledger import LAYER_TARGETS, resolve  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def _run(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "perf" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _wrapped_targets():
    return {path: vars(found[0])[found[1]]
            for paths in LAYER_TARGETS.values() for path in paths
            if (found := resolve(path)) is not None}


@pytest.mark.parametrize("name", perf_run.WORKLOAD_NAMES)
def test_traced_then_untraced_round_gives_identical_outputs(name, tmp_path):
    before = _wrapped_targets()
    with perf_run.Session(name, 0, "tiny", True, tmp_path / "traced") as session:
        traced = session.measure(0.0)
    assert _wrapped_targets() == before
    with perf_run.Session(name, 0, "tiny", False, tmp_path / "plain") as session:
        plain = session.measure(0.0)
    assert traced["problems"] == [] and plain["problems"] == []
    assert traced["digest"] == plain["digest"]
    assert plain["digest"] == REFERENCE["digests"]["tiny"][name]["0"]
    assert traced["layers"]["trace.coverage"] >= 0.9
    assert traced["layers"]["trace.absent_targets"] == 0


def _final_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_reported_with_its_unit(trace, tmp_path):
    result = _final_line(_run("--scale", "tiny", "--seconds", "0",
                              "--trace", trace, "--out", str(tmp_path)))
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    specs = BENCH["per_layer"] if trace == "1" else BENCH["end_to_end"]
    expected = {f"{w}.{m['name']}": m["unit"]
                for w in perf_run.WORKLOAD_NAMES for m in specs}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _copy_benchmark(checkout: Path) -> Path:
    """BENCHMARK.json and benchmarks/perf copied into ``checkout``;
    returns the copied benchmark directory."""
    (checkout / "benchmarks").mkdir()
    copy = checkout / "benchmarks" / "perf"
    shutil.copytree(HERE, copy, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", checkout)
    return copy


def test_wrong_reference_digest_fails_naming_the_workload(tmp_path):
    copy = _copy_benchmark(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    reference = json.loads(json.dumps(REFERENCE))
    reference["digests"]["tiny"]["short_points"]["0"] = "0" * 64
    (copy / "reference.json").write_text(json.dumps(reference))
    proc = _run("--workload", "short_points", "--scale", "tiny", "--seed", "0",
                "--seconds", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "short_points" in proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"] is False


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run("--workload", "short_points", "--seed", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
