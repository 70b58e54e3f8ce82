"""Tables, ASCII charts and experiment records."""

import json

import numpy as np
import pytest

from repro.analysis import (
    ExperimentRecord,
    band_chart,
    format_kv,
    format_table,
    line_chart,
)


class TestTables:
    def test_basic_table(self):
        text = format_table(("a", "bb"), [(1, 2.5), (10, 0.125)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "0.125" in text

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(("a", "b"), [(1,)])

    def test_format_kv_alignment(self):
        text = format_kv([("short", 1), ("a-much-longer-key", 2.5)])
        lines = text.splitlines()
        assert lines[0].index(":") == lines[1].index(":")

    def test_format_kv_empty(self):
        assert format_kv([], title="t") == "t"


class TestCharts:
    def test_line_chart_renders_all_series(self):
        text = line_chart(
            {"x": [1, 2, 3], "y": [3, 2, 1]},
            x_labels=["a", "b", "c"],
            title="chart",
        )
        assert text.startswith("chart")
        assert "o=x" in text and "x=y" in text
        assert "a" in text

    def test_band_chart(self):
        text = band_chart([1.0, 2.0], [0.1, 0.2], title="band")
        assert "+sigma" in text and "-sigma" in text

    def test_validation(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"a": [1, 2], "b": [1]})
        with pytest.raises(ValueError):
            line_chart({"a": [1, 2]}, x_labels=["only-one"])
        with pytest.raises(ValueError):
            band_chart([1.0], [0.1, 0.2])

    def test_nan_values_skipped(self):
        text = line_chart({"a": [1.0, float("nan"), 3.0]})
        assert text  # renders without raising

    def test_flat_series_does_not_crash(self):
        assert line_chart({"a": [5.0, 5.0, 5.0]})


class TestRecords:
    def test_save_load_roundtrip(self, tmp_path):
        rec = ExperimentRecord(
            experiment_id="fig0",
            title="test",
            params={"mode": "smoke"},
            data={"xs": [1, 2, 3]},
        )
        rec.add_note("hello")
        path = rec.save(tmp_path)
        assert path.name == "fig0.json"
        loaded = ExperimentRecord.load(path)
        assert loaded.experiment_id == "fig0"
        assert loaded.data["xs"] == [1, 2, 3]
        assert loaded.notes == ["hello"]

    def test_numpy_values_serialise(self, tmp_path):
        rec = ExperimentRecord(
            experiment_id="np",
            title="numpy",
            data={"arr": np.array([1.5, 2.5]), "scalar": np.float64(3.5)},
        )
        payload = json.loads(rec.to_json())
        assert payload["data"]["arr"] == [1.5, 2.5]
        assert payload["data"]["scalar"] == 3.5

    def test_telemetry_key_only_when_attached(self):
        rec = ExperimentRecord(experiment_id="t", title="t", data={"x": 1})
        assert "telemetry" not in json.loads(rec.to_json())
        rec.attach_telemetry({"points_done": 3})
        assert json.loads(rec.to_json())["telemetry"] == {"points_done": 3}

    def test_unserialisable_raises(self):
        rec = ExperimentRecord(experiment_id="x", title="x", data={"f": object()})
        with pytest.raises(TypeError):
            rec.to_json()
