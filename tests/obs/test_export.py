"""Chrome-trace export, format-agnostic loading, and the ASCII summary."""

import json

import pytest

from repro.errors import ReproError
from repro.obs import (
    chrome_trace,
    configure_tracer,
    load_trace,
    span,
    summarize_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.summary import self_times


def record_small_trace(tmp_path):
    """A realistic little trace: sweep > points with cache lookups."""
    log = tmp_path / "t.jsonl"
    t = configure_tracer(log)
    with span("sweep", cat="sweep", kind="cs"):
        for k in range(4):
            with span("cache.get", cat="cache") as s:
                s.set(hit=k % 2 == 0)
            with span("point", cat="point", k=k):
                pass
    t.record_counters("runner.batch", {"points_done": 4, "utilization": 0.9})
    t.finish()
    return t, log


class TestChromeExport:
    def test_export_passes_schema_validation(self, tmp_path):
        t, _ = record_small_trace(tmp_path)
        trace = chrome_trace(t.events)
        assert validate_chrome_trace(trace) == []

    def test_timestamps_rebased_to_zero(self, tmp_path):
        t, _ = record_small_trace(tmp_path)
        trace = chrome_trace(t.events)
        ts = [e["ts"] for e in trace["traceEvents"] if "ts" in e]
        assert min(ts) == 0.0

    def test_thread_name_metadata_per_lane(self, tmp_path):
        t, _ = record_small_trace(tmp_path)
        trace = chrome_trace(t.events)
        metas = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert len(metas) == 1  # single-threaded trace: one lane
        assert metas[0]["name"] == "thread_name"

    def test_written_file_loads_back_identically(self, tmp_path):
        t, log = record_small_trace(tmp_path)
        out = write_chrome_trace(tmp_path / "t.json", chrome_trace(t.events))
        native_spans, native_counters, _ = load_trace(log)
        chrome_spans, chrome_counters, _ = load_trace(out)
        assert [s["name"] for s in chrome_spans] == \
            [s["name"] for s in native_spans]
        assert [s["args"] for s in chrome_spans] == \
            [s["args"] for s in native_spans]
        for a, b in zip(chrome_spans, native_spans):
            assert a["dur"] == pytest.approx(b["dur"], abs=1e-9)
        assert chrome_counters[0]["values"] == native_counters[0]["values"]

    def test_validator_rejects_malformed_events(self):
        bad = {"traceEvents": [
            {"name": "ok", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1},
            {"name": "no-phase"},
            {"name": "neg", "ph": "X", "ts": -5, "dur": 1, "pid": 1},
            {"name": "ctr", "ph": "C", "ts": 0, "pid": 1,
             "args": {"rate": "fast"}},
        ]}
        problems = validate_chrome_trace(bad)
        assert len(problems) == 3
        assert validate_chrome_trace([]) == ["top level must be an object, got list"]
        assert validate_chrome_trace({}) == ["missing 'traceEvents' list"]

    def test_load_missing_file_raises_repro_error(self, tmp_path):
        with pytest.raises(ReproError, match="not found"):
            load_trace(tmp_path / "nope.json")


class TestSummary:
    def test_summary_sections(self, tmp_path):
        _, log = record_small_trace(tmp_path)
        report = summarize_trace(log)
        assert "per-phase time" in report
        assert "point" in report and "sweep" in report
        assert "point latency (n=4)" in report
        assert "p50=" in report and "p99=" in report
        assert "cache lookups (2 hit / 2 miss" in report
        assert "[H.H.]" in report  # chronological hit/miss marks
        assert "% busy" in report
        assert "runner.batch" in report

    def test_summary_of_chrome_export_matches_native(self, tmp_path):
        t, log = record_small_trace(tmp_path)
        out = write_chrome_trace(tmp_path / "t.json", chrome_trace(t.events))
        native = summarize_trace(log).split("\n", 1)[1]
        chrome = summarize_trace(out).split("\n", 1)[1]
        assert "point latency (n=4)" in chrome
        assert native.count("\n") == chrome.count("\n")

    def test_self_time_per_span_name_on_two_lanes(self, tmp_path):
        """Self time subtracts only child spans on the span's own lane:
        lane 2's spans overlap lane 1's in time but are nobody's
        children there."""
        def x(name, t0_ms, end_ms, tid):
            return {"name": name, "cat": "phase", "ph": "X", "pid": 1,
                    "tid": tid, "ts": t0_ms * 1e3, "dur": (end_ms - t0_ms) * 1e3}

        events = [
            x("A", 0, 100, 1), x("B", 10, 40, 1), x("B", 50, 70, 1),
            x("C", 55, 60, 1),
            x("A", 20, 80, 2), x("C", 30, 50, 2),
        ]
        path = tmp_path / "nested.json"
        path.write_text(json.dumps({"traceEvents": events}))
        spans, _, _ = load_trace(path)
        got = {name: (calls, round(total, 9), round(self_s, 9))
               for name, (calls, total, self_s) in self_times(spans).items()}
        assert got == {"A": (2, 0.16, 0.09), "B": (2, 0.05, 0.045),
                       "C": (2, 0.025, 0.025)}
        report = summarize_trace(path)
        assert "self time by span name" in report
        rows = report.split("self time by span name", 1)[1].splitlines()[2:5]
        assert [row.split() for row in rows] == [
            ["A", "2", "160.0ms", "90.0ms"],
            ["B", "2", "50.0ms", "45.0ms"],
            ["C", "2", "25.0ms", "25.0ms"],
        ]

    def test_empty_trace_reported_not_crashed(self, tmp_path):
        t = configure_tracer(tmp_path / "t.jsonl")
        t.finish()
        assert "no spans" in summarize_trace(t.path)
