"""Command-line interface."""

import json
import re

import pytest

from repro import __version__
from repro.analysis import ExperimentRecord
from repro.cli import _build_parser, main
from repro.experiments import EXPERIMENTS

#: Every verb, in the order ``repro --help`` lists them.
VERBS = ("list", "version", "run", "machine", "bench", "trace", "submit",
         "serve", "queue", "query")


def _verb_help(parser, verb, capsys):
    """What ``repro <verb> --help`` prints through ``parser``."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([verb, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


class TestBasicCommands:
    def test_version(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_list_names_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig5", "fig6", "fig9", "fig11", "calibration"):
            assert name in out

    def test_machine_default_and_scaled(self, capsys):
        assert main(["machine"]) == 0
        assert "1/16" in capsys.readouterr().out
        assert main(["machine", "--scale", "1"]) == 0
        assert "20MiB" in capsys.readouterr().out

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        out = capsys.readouterr().out
        assert "usage" in out
        assert "{" + ",".join(VERBS) + "}" in out
        # One "    <verb>   <help>" line per verb, in table order.
        assert tuple(re.findall(r"^    (\w+) +\S", out, re.M)) == VERBS


class TestParserSplit:
    """main builds only the invoked verb's subparser; nothing a user
    reads may tell the difference."""

    @pytest.mark.parametrize("verb", VERBS)
    def test_verb_only_parser_matches_the_full_parser(self, verb, capsys):
        alone, full = _build_parser(verb), _build_parser()
        assert alone.format_usage() == full.format_usage()
        assert _verb_help(alone, verb, capsys) == _verb_help(
            full, verb, capsys)


class TestRun:
    def test_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_executes_and_saves(self, capsys, tmp_path, monkeypatch):
        import repro.experiments as ex

        def run(mode, seed=0):
            return ExperimentRecord(
                experiment_id="fake", title="Fake", data={"x": [1]},
                notes=["note-1"],
            )

        monkeypatch.setattr(ex, "EXPERIMENTS", {
            "fake": ("a fake experiment", run, lambda r: "RENDERED"),
        })
        assert main(["run", "fake", "--out", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "RENDERED" in captured.out
        assert "note-1" in captured.out
        payload = json.loads((tmp_path / "fake.json").read_text())
        assert payload["experiment_id"] == "fake"

    def test_registry_entries_are_callable(self):
        for name, (desc, run_fn, render_fn) in EXPERIMENTS.items():
            assert callable(run_fn), name
            assert isinstance(desc, str) and desc


class TestTraceAndTelemetry:
    """``--trace`` wiring, ``repro trace``, and the failure-path fix:
    telemetry and the trace artifact must survive a ReproError."""

    @pytest.fixture(autouse=True)
    def clean_globals(self):
        from repro.core.parallel import reset_session_telemetry
        from repro.obs import reset_tracer

        reset_session_telemetry()
        reset_tracer()
        yield
        reset_session_telemetry()
        reset_tracer()

    @staticmethod
    def _fake_experiment(monkeypatch, run_fn):
        import repro.experiments as ex

        monkeypatch.setattr(ex, "EXPERIMENTS",
                            {"fake": ("a fake experiment", run_fn, None)})

    def _run_some_points(self):
        """Real runner work, so session telemetry has points to report."""
        from repro.core.parallel import PointRunner, PointTask

        PointRunner(backend="serial").run(
            [PointTask(fn=abs, args=(-i,)) for i in range(3)]
        )

    def test_trace_flag_writes_both_artifacts(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.obs import validate_chrome_trace

        def run(mode, seed=0):
            self._run_some_points()
            return ExperimentRecord(
                experiment_id="fake", title="Fake", data={},
            )

        self._fake_experiment(monkeypatch, run)
        trace = tmp_path / "t.json"
        assert main(["run", "fake", "--out", str(tmp_path),
                     "--trace", str(trace)]) == 0
        err = capsys.readouterr().err
        assert "runner: 3/3 points" in err
        assert f"trace written to {trace}" in err
        assert trace.exists() and trace.with_suffix(".json.jsonl").exists()
        assert validate_chrome_trace(json.loads(trace.read_text())) == []
        payload = json.loads((tmp_path / "fake.json").read_text())
        assert payload["telemetry"]["points_done"] == 3

    def test_failure_path_still_reports_telemetry_and_trace(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.errors import ReproError
        from repro.obs import validate_chrome_trace

        def run(mode, seed=0):
            self._run_some_points()
            raise ReproError("campaign exploded mid-run")

        self._fake_experiment(monkeypatch, run)
        trace = tmp_path / "t.json"
        assert main(["run", "fake", "--trace", str(trace)]) == 1
        err = capsys.readouterr().err
        # The bug: returning on ReproError before reading telemetry or
        # finishing the trace threw away exactly the diagnostics a
        # failed campaign needs.
        assert "runner: 3/3 points" in err
        assert "error: campaign exploded mid-run" in err
        assert trace.exists()
        chrome = json.loads(trace.read_text())
        assert validate_chrome_trace(chrome) == []
        names = {e["name"] for e in chrome["traceEvents"]}
        assert "experiment" in names  # the span closed despite the raise

    def test_trace_command_summarises_either_format(
        self, capsys, tmp_path, monkeypatch
    ):
        def run(mode, seed=0):
            self._run_some_points()
            return ExperimentRecord(experiment_id="fake", title="Fake", data={})

        self._fake_experiment(monkeypatch, run)
        trace = tmp_path / "t.json"
        assert main(["run", "fake", "--out", str(tmp_path),
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        for artifact in (trace, trace.with_suffix(".json.jsonl")):
            assert main(["trace", str(artifact)]) == 0
            out = capsys.readouterr().out
            assert "trace summary" in out
            assert "per-phase time" in out

    def test_trace_command_missing_file(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err


class TestBenchShapes:
    def test_unknown_shape_rejected_with_list(self, capsys, tmp_path):
        rc = main(["bench", "engine", "--shapes", "rnd,sweep",
                   "--out", str(tmp_path / "b.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "unknown bench shape(s) ['rnd', 'sweep']" in err
        for known in ("'random'", "'mc_csthr'"):
            assert known in err

    def test_empty_selection_rejected(self, capsys, tmp_path):
        rc = main(["bench", "engine", "--shapes", " , ",
                   "--out", str(tmp_path / "b.json")])
        assert rc == 1
        assert "no bench shapes selected" in capsys.readouterr().err

    def test_valid_subset_runs_and_writes_baseline(self, capsys, tmp_path):
        out = tmp_path / "b.json"
        rc = main(["bench", "engine", "--shapes", "random",
                   "--accesses", "4000", "--rounds", "1",
                   "--out", str(out)])
        assert rc == 0
        baseline = json.loads(out.read_text())
        assert "random" in baseline["accesses_per_sec"]
        assert baseline["schema_version"] == 5
        assert baseline["clock"] == "thread_time"
        assert "sweep_accesses_per_sec" not in baseline


class TestServiceVerbs:
    """submit / serve / queue: the service's command-line surface."""

    SUBMIT = ["submit", "--preset", "tiny", "--ks", "0,1",
              "--warmup", "2000", "--measure", "1000"]

    def test_submit_serve_queue_round_trip(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert main(self.SUBMIT + ["--root", root]) == 0
        job_id = capsys.readouterr().out.strip()
        assert job_id.startswith("j00000-")
        assert main(["queue", "--root", root]) == 0
        assert "queued" in capsys.readouterr().out
        assert main(["serve", "--root", root, "--inline"]) == 0
        capsys.readouterr()
        assert main(["queue", "--root", root, "--job", job_id]) == 0
        out = capsys.readouterr().out
        assert "state=done" in out
        assert "result:" in out

    def test_submit_validates_spec_and_params(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert main(["submit", "--root", root, "--app", "nope",
                     "--preset", "tiny", "--ks", "0,1"]) == 1
        assert "unknown app profile" in capsys.readouterr().err
        with pytest.raises(SystemExit, match="K=V"):
            main(["submit", "--root", root, "--preset", "tiny",
                  "--ks", "0,1", "--param", "oops"])
        with pytest.raises(SystemExit, match="comma-separated"):
            main(["submit", "--root", root, "--preset", "tiny",
                  "--ks", "zero"])

    def test_app_params_reach_the_job_spec(self, tmp_path, capsys):
        from repro.service import DurableBroker

        root = str(tmp_path / "svc")
        assert main(self.SUBMIT + [
            "--root", root, "--param", "dist=zipf",
            "--param", "buffer_bytes=1048576",
        ]) == 0
        job_id = capsys.readouterr().out.strip()
        job = DurableBroker(root).job(job_id)
        assert job.spec.app_params == {"dist": "zipf",
                                       "buffer_bytes": 1048576}

    def test_queue_reports_unknown_job(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert main(self.SUBMIT + ["--root", root]) == 0
        capsys.readouterr()
        assert main(["queue", "--root", root, "--job", "j99999-0000"]) == 1
        assert "unknown job" in capsys.readouterr().err

    def test_submit_announces_the_trace_id(self, tmp_path, capsys):
        from repro.service import DurableBroker

        root = str(tmp_path / "svc")
        assert main(self.SUBMIT + ["--root", root]) == 0
        captured = capsys.readouterr()
        job_id = captured.out.strip()
        job = DurableBroker(root).job(job_id)
        assert len(job.trace_id) == 16
        assert f"trace: {job.trace_id}" in captured.err

    def test_queue_on_a_missing_root_creates_nothing(self, tmp_path, capsys):
        root = tmp_path / "typo"
        assert main(["queue", "--root", str(root)]) == 1
        assert f"error: no service queue at {root}" in capsys.readouterr().err
        assert not root.exists()


class TestQueryVerb:
    """query: the point index's command-line surface."""

    SUBMIT = ["submit", "--preset", "tiny", "--ks", "0,1",
              "--warmup", "2000", "--measure", "1000"]

    @pytest.fixture
    def served_root(self, tmp_path, capsys):
        root = str(tmp_path / "svc")
        assert main(self.SUBMIT + ["--root", root,
                                   "--tenant", "alice"]) == 0
        job_id = capsys.readouterr().out.strip()
        assert main(["serve", "--root", root, "--inline"]) == 0
        capsys.readouterr()
        return root, job_id

    def test_points_table_shows_slowdown(self, served_root, capsys):
        root, job_id = served_root
        assert main(["query", "--root", root]) == 0
        captured = capsys.readouterr()
        assert job_id in captured.out
        assert "slowdown" in captured.out
        assert "1.0000" in captured.out  # the k=0 baseline point
        assert "2 point row(s)" in captured.err

    def test_tenant_filter(self, served_root, capsys):
        root, job_id = served_root
        assert main(["query", "--root", root, "--tenant", "alice"]) == 0
        captured = capsys.readouterr()
        assert job_id in captured.out
        assert "2 point row(s)" in captured.err
        assert main(["query", "--root", root, "--tenant", "nobody"]) == 0
        captured = capsys.readouterr()
        assert job_id not in captured.out
        assert "0 point row(s)" in captured.err

    def test_query_on_a_missing_root_creates_nothing(self, tmp_path, capsys):
        root = tmp_path / "typo"
        assert main(["query", "--root", str(root)]) == 1
        assert f"error: no service queue at {root}" in capsys.readouterr().err
        assert not root.exists()

    def test_k_range_filter(self, served_root, capsys):
        root, _ = served_root
        assert main(["query", "--root", root, "--k-min", "1"]) == 0
        assert "1 point row(s)" in capsys.readouterr().err

    def test_json_output_is_parseable(self, tmp_path, capsys):
        """``--json`` bytes, pinned against rows built from the client's
        view of each job rather than from the store."""
        from repro.service import ServiceClient

        root = str(tmp_path / "svc")
        ids = []
        for extra in (["--tenant", "alice"],
                      ["--tenant", "bob", "--app", "stream", "--kind", "bw",
                       "--ks", "0,2"]):
            assert main(self.SUBMIT + ["--root", root] + extra) == 0
            ids.append(capsys.readouterr().out.strip())
        assert main(["serve", "--root", root, "--inline"]) == 0
        capsys.readouterr()

        client = ServiceClient(root)
        rows = []
        for job_id in ids:
            job, payload = client.status(job_id), client.result(job_id)
            base = float(min(payload, key=lambda p: p["k"])
                         ["time_per_access_ns"])
            for idx, point in enumerate(payload):
                t_access = float(point["time_per_access_ns"])
                rows.append(dict(
                    point, job_id=job_id, idx=idx,
                    slowdown=t_access / base, t_access_ns=t_access,
                    tenant=job.tenant, app=job.spec.app,
                    preset=job.spec.preset, trace_id=job.trace_id,
                ))
        cases = [
            ([], rows),
            (["--job", ids[1]], [r for r in rows if r["job_id"] == ids[1]]),
            (["--app", "stream", "--kind", "bw"],
             [r for r in rows if (r["app"], r["kind"]) == ("stream", "bw")]),
            (["--k-min", "1", "--k-max", "2"],
             [r for r in rows if 1 <= r["k"] <= 2]),
            (["--tenant", "nobody"], []),
        ]
        for argv, expected in cases:
            assert main(["query", "--root", root, "--json", *argv]) == 0
            out = capsys.readouterr().out
            assert out == json.dumps(expected, sort_keys=True,
                                     indent=1) + "\n", argv
        assert out == "[]\n"

    def test_backfill_rebuilds_a_deleted_store(self, served_root, capsys):
        from pathlib import Path

        root, job_id = served_root
        for path in Path(root).glob("store.sqlite*"):
            path.unlink()
        assert main(["query", "--root", root, "--backfill"]) == 0
        captured = capsys.readouterr()
        assert "backfilled 1 job(s)" in captured.err
        assert job_id in captured.out

    def test_schema_mismatch_names_a_rebuild_that_works(self, served_root,
                                                        capsys):
        import sqlite3
        from pathlib import Path

        root, _ = served_root
        assert main(["query", "--root", root, "--json"]) == 0
        before = capsys.readouterr().out
        store = Path(root) / "store.sqlite"
        with sqlite3.connect(store) as conn:
            conn.execute("UPDATE meta SET value='2' WHERE key='schema'")
        conn.close()

        assert main(["query", "--root", root, "--json"]) == 1
        err = capsys.readouterr().err
        assert f"delete {store}*" in err
        assert f"'repro query --root {root} --backfill'" in err
        # The advice works: delete, backfill, and the rows come back.
        for path in Path(root).glob("store.sqlite*"):
            path.unlink()
        assert main(["query", "--root", root, "--backfill"]) == 0
        capsys.readouterr()
        assert main(["query", "--root", root, "--json"]) == 0
        assert capsys.readouterr().out == before
