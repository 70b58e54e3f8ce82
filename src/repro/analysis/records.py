"""Experiment records: structured, JSON-serialisable results.

Every experiment driver returns one :class:`ExperimentRecord`;
``scripts/check_records.py --write`` persists them under ``results/`` so
EXPERIMENTS.md can cite concrete numbers and reruns can be diffed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, List


@dataclass
class ExperimentRecord:
    """One reproduced table/figure.

    ``data`` holds the figure's series/rows as plain JSON-able values;
    ``params`` records the sweep configuration (mode, scale, seeds) so a
    record is self-describing.
    """

    experiment_id: str
    title: str
    params: Dict[str, Any] = field(default_factory=dict)
    data: Dict[str, Any] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    telemetry: Dict[str, Any] = field(default_factory=dict)

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    def attach_telemetry(self, telemetry: Dict[str, Any]) -> None:
        """Record runner telemetry (points run, cache hits, utilization)."""
        self.telemetry = dict(telemetry)

    def to_json(self) -> str:
        """The record as JSON; a record without runner telemetry carries
        no ``telemetry`` key, so its bytes depend only on its results."""
        payload = asdict(self)
        if not payload["telemetry"]:
            del payload["telemetry"]
        return json.dumps(payload, indent=2, sort_keys=True, default=_jsonify)

    def save(self, directory: str | Path) -> Path:
        """Write ``<directory>/<experiment_id>.json``; returns the path."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.experiment_id}.json"
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentRecord":
        payload = json.loads(Path(path).read_text())
        return cls(
            experiment_id=payload["experiment_id"],
            title=payload["title"],
            params=payload.get("params", {}),
            data=payload.get("data", {}),
            notes=payload.get("notes", []),
            telemetry=payload.get("telemetry", {}),
        )


def _jsonify(obj: Any) -> Any:
    """Fallback encoder for numpy scalars/arrays."""
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"not JSON serialisable: {type(obj)!r}")
