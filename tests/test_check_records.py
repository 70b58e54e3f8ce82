"""scripts/check_records.py: regenerate, compare, shape-check, write and
resume, on a temporary copy of the committed records and the two fastest
experiments."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

from repro.experiments import EXPERIMENTS

REPO = Path(__file__).resolve().parents[1]
FAST = ["ablation_prefetch", "ablation_quantum"]


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "check_records", REPO / "scripts" / "check_records.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


check_records = _load_script()


@pytest.fixture
def records(tmp_path, monkeypatch):
    """A records root holding copies of the committed FAST records; the
    resume journal goes next to it."""
    root = tmp_path / "results"
    for mode_dir in (root, root / "paper"):
        mode_dir.mkdir()
    for name in FAST:
        shutil.copy(REPO / "results" / f"{name}.json", root)
        shutil.copy(REPO / "results" / "paper" / f"{name}.json", root / "paper")
    monkeypatch.setattr(check_records, "RESULTS", root)
    monkeypatch.setattr(check_records, "JOURNAL_DIR", tmp_path)
    # The script unsets these for its process; restore them afterwards.
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    monkeypatch.delenv("REPRO_JOURNAL", raising=False)
    return root


def _replace_driver(monkeypatch, name, run):
    desc, _, render = EXPERIMENTS[name]
    monkeypatch.setitem(EXPERIMENTS, name, (desc, run, render))


def _kill_after_the_first(monkeypatch, capsys):
    """Run FAST with the second driver dying as a SIGINT would."""
    original = EXPERIMENTS[FAST[1]]

    def killed(mode, seed=0):
        raise KeyboardInterrupt

    _replace_driver(monkeypatch, FAST[1], killed)
    with pytest.raises(KeyboardInterrupt):
        check_records.main(FAST)
    monkeypatch.setitem(EXPERIMENTS, FAST[1], original)
    capsys.readouterr()


def test_a_changed_float_fails_naming_its_key_path(records, capsys):
    path = records / "ablation_prefetch.json"
    payload = json.loads(path.read_text())
    payload["data"]["bwthr_unit_GBps"]["6"] += 1e-9
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    assert check_records.main(FAST) == 1
    out = capsys.readouterr().out
    assert ("FAIL ablation_prefetch" in out
            and "record differs at data.bwthr_unit_GBps.6" in out)
    assert "ok   ablation_quantum (" in out  # the check goes on
    assert out.endswith("FAILED: ablation_prefetch\n")


def test_a_record_that_breaks_its_shape_fails_naming_the_experiment(
        records, capsys, monkeypatch):
    _, run, _ = EXPERIMENTS["ablation_prefetch"]

    def no_prefetch_gain(mode, seed=0):
        record = run(mode, seed=seed)
        unit = record.data["bwthr_unit_GBps"]
        unit["6"] = unit["0"]
        return record

    _replace_driver(monkeypatch, "ablation_prefetch", no_prefetch_gain)
    assert check_records.main(["--write", "ablation_prefetch"]) == 1
    capsys.readouterr()
    assert check_records.main(FAST) == 1
    out = capsys.readouterr().out
    assert "FAIL ablation_prefetch" in out
    assert "shape: assert unit[" in out and "differs" not in out
    assert out.endswith("FAILED: ablation_prefetch\n")


@pytest.mark.parametrize("mode", ["smoke", "paper"])
def test_write_reproduces_the_committed_bytes(records, capsys, mode):
    mode_dir = records if mode == "smoke" else records / mode
    path = mode_dir / "ablation_quantum.json"
    committed = path.read_bytes()
    path.unlink()
    argv = ["--mode", mode, "ablation_quantum"]
    assert check_records.main(["--write"] + argv) == 0
    assert path.read_bytes() == committed
    assert check_records.main(argv) == 0
    assert check_records.main(["--write"] + argv) == 0
    assert path.read_bytes() == committed


def test_resume_skips_journaled_experiments(records, capsys, monkeypatch):
    _kill_after_the_first(monkeypatch, capsys)

    def ran_again(mode, seed=0):
        raise AssertionError("a journaled experiment ran again")

    _replace_driver(monkeypatch, FAST[0], ran_again)
    assert check_records.main(["--resume"] + FAST) == 0
    out = capsys.readouterr().out
    assert f"ok   {FAST[0]} (journaled, " in out
    assert f"ok   {FAST[1]} (" in out
    # A complete run leaves no journal behind.
    assert not list(check_records.JOURNAL_DIR.glob("check_records-*"))


def test_an_existing_journal_is_refused_without_resume(
        records, capsys, monkeypatch):
    _kill_after_the_first(monkeypatch, capsys)
    assert check_records.main(FAST) == 2
    assert "pass --resume" in capsys.readouterr().err
