"""Results store: the point index behind ``repro query``, in one
SQLite file.

The per-job JSON artifacts (``results/<job>.json``) are the service's
*durability* format — atomic, human-readable, byte-comparable in the
chaos drills — but they are opaque to queries: answering "every
capacity-sweep point tenant alice ran on the xeon preset with k ≤ 3"
means opening every file and replaying the broker log for the job
identities. The store indexes the artifacts' points: one ``points`` row
per interference point and one ``jobs`` row per completed job holding
only the identity the filters need (tenant, app, preset, trace id,
submission time). Job *state* is not mirrored here; ``repro queue``
reads it from the broker log.

Design rules:

- **The artifact stays authoritative.** The store is derived data,
  populated by the agent right after a fenced ``complete`` and
  repairable at any time via :meth:`ResultsStore.backfill`, which
  re-reads the artifacts. Nothing in the service's exactly-once
  argument depends on the store.
- **Rows are rendered once, at write time.** A point row holds only
  the columns SQL reads (job, index, kind, k) plus ``row_json``: the
  row's final ``repro query --json`` text (the artifact's point, its
  slowdown against the job's k-lowest point and the job identity),
  exactly as ``json.dumps(rows, sort_keys=True, indent=1)`` renders it
  as a list element. :meth:`query_json` joins the stored texts instead
  of parsing and re-encoding every row.
- **Byte parity with the artifact.** The row text keeps the artifact's
  exact ``repr``-float strings, so :meth:`point_payload` reconstructs
  the artifact payload exactly and the ``service-smoke`` CI job can
  assert byte-for-byte equality after a backfill.
- **WAL mode, one writer per process.** Each agent process owns one
  connection; SQLite's WAL journal lets the fleet's writers interleave
  under ``busy_timeout`` while ``repro query`` readers never block.
- **Schema-versioned.** The ``meta`` table records
  :data:`STORE_SCHEMA` (3 since rows are stored rendered); opening a
  store written by a different schema fails loudly instead of silently
  misreading rows, naming the rebuild: delete the file, then run
  ``repro query --backfill``.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from ..errors import ServiceError
from .broker import DONE, DurableBroker, JobRecord

#: Bump on any change to the table layout or the row text below.
STORE_SCHEMA = 3

#: Default store filename inside a service root.
STORE_NAME = "store.sqlite"

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    job_id        TEXT PRIMARY KEY,
    tenant        TEXT NOT NULL,
    app           TEXT NOT NULL,
    preset        TEXT NOT NULL,
    trace_id      TEXT NOT NULL DEFAULT '',
    submitted_at  REAL NOT NULL DEFAULT 0.0
);
CREATE INDEX IF NOT EXISTS jobs_tenant ON jobs(tenant);
CREATE INDEX IF NOT EXISTS jobs_app_preset ON jobs(app, preset);
CREATE TABLE IF NOT EXISTS points (
    job_id   TEXT NOT NULL REFERENCES jobs(job_id),
    idx      INTEGER NOT NULL,
    kind     TEXT NOT NULL,
    k        INTEGER NOT NULL,
    row_json TEXT NOT NULL,
    PRIMARY KEY (job_id, idx)
);
CREATE INDEX IF NOT EXISTS points_k ON points(k);
"""

#: The artifact's per-point keys, which :meth:`ResultsStore.point_payload`
#: takes back out of a row.
_ARTIFACT_KEYS = ("kind", "k", "makespan_ns", "main_cores", "l3_miss_rates",
                  "bandwidths_Bps", "time_per_access_ns")


def _point_rows(
    job: JobRecord, payload: Iterable[Dict[str, Any]]
) -> List[tuple]:
    """Render an artifact payload into ``points`` rows. Each row's text
    is the artifact point plus its slowdown against the job's lowest-k
    point (the paper's uncontended baseline, k=0 in every shipped
    sweep) and the job identity, laid out as one element of
    ``json.dumps(rows, sort_keys=True, indent=1)``."""
    points = list(payload)
    baseline: Optional[float] = None
    if points:
        base_point = min(points, key=lambda p: int(p["k"]))
        base_t = float(base_point["time_per_access_ns"])
        baseline = base_t if base_t > 0 else None
    rows = []
    for idx, point in enumerate(points):
        t_access = float(point["time_per_access_ns"])
        row = {
            "job_id": job.id,
            "idx": idx,
            "kind": str(point["kind"]),
            "k": int(point["k"]),
            "slowdown": (t_access / baseline) if baseline else None,
            "t_access_ns": t_access,
            "makespan_ns": str(point["makespan_ns"]),
            "time_per_access_ns": str(point["time_per_access_ns"]),
            "main_cores": point["main_cores"],
            "l3_miss_rates": point["l3_miss_rates"],
            "bandwidths_Bps": point["bandwidths_Bps"],
            "tenant": job.tenant,
            "app": job.spec.app,
            "preset": job.spec.preset,
            "trace_id": job.trace_id,
        }
        text = json.dumps([row], sort_keys=True, indent=1)[2:-2]
        rows.append((job.id, idx, row["kind"], row["k"], text))
    return rows


class ResultsStore:
    """The service root's SQLite results store (see module docstring).

    Parameters
    ----------
    root:
        Service root directory; the store lives at ``root/store.sqlite``
        unless ``path`` overrides it.
    path:
        Explicit database path (tests, ad-hoc analysis copies).
    """

    def __init__(self, root: str | Path, path: Optional[str | Path] = None):
        self.root = Path(root)
        self.path = Path(path) if path is not None else self.root / STORE_NAME
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(str(self.path), timeout=10.0)
        self._conn.row_factory = sqlite3.Row
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=10000")
        self._ensure_schema()

    # -- lifecycle --------------------------------------------------------------

    def _ensure_schema(self) -> None:
        with self._conn:
            self._conn.executescript(_TABLES)
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT INTO meta(key, value) VALUES('schema', ?)",
                    (str(STORE_SCHEMA),),
                )
        if row is not None and int(row["value"]) != STORE_SCHEMA:
            self._conn.close()
            raise ServiceError(
                f"results store {self.path} has schema {row['value']}, "
                f"this build expects {STORE_SCHEMA}; it is derived data: "
                f"delete {self.path}* and run 'repro query --root "
                f"{self.root} --backfill' to rebuild it from the JSON "
                "artifacts"
            )

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- writes -----------------------------------------------------------------

    def record_job(
        self, job: JobRecord, payload: Iterable[Dict[str, Any]]
    ) -> None:
        """Write one completed job's identity row and replace its
        rendered point rows in a single transaction. Idempotent: a
        zombie attempt racing its replacement writes identical rows —
        point purity again, now at the store layer."""
        with self._conn:
            self._conn.execute(
                """
                INSERT OR REPLACE INTO jobs(job_id, tenant, app, preset,
                                            trace_id, submitted_at)
                VALUES(?, ?, ?, ?, ?, ?)
                """,
                (job.id, job.tenant, job.spec.app, job.spec.preset,
                 job.trace_id, job.submitted_at),
            )
            self._conn.execute("DELETE FROM points WHERE job_id=?", (job.id,))
            self._conn.executemany(
                "INSERT INTO points(job_id, idx, kind, k, row_json) "
                "VALUES(?, ?, ?, ?, ?)",
                _point_rows(job, payload),
            )

    def backfill(self, broker: DurableBroker) -> int:
        """Parity path: write the rows of every done job the store
        lacks, read back from its JSON artifact. Covers the crash window
        between a fenced ``complete`` and the agent's store write, store
        deletion, and stores created after the queue already drained.
        Returns the number of jobs written."""
        have = {row["job_id"] for row in
                self._conn.execute("SELECT job_id FROM jobs")}
        written = 0
        for job in broker.jobs():
            if job.state != DONE or not job.result_path or job.id in have:
                continue
            artifact = Path(job.result_path)
            try:
                payload = json.loads(artifact.read_text())
            except OSError as exc:
                raise ServiceError(
                    f"cannot backfill job {job.id}: result artifact "
                    f"{artifact} unreadable ({exc})"
                ) from exc
            except ValueError as exc:
                raise ServiceError(
                    f"cannot backfill job {job.id}: result artifact "
                    f"{artifact} is torn or corrupt ({exc})"
                ) from exc
            self.record_job(job, payload)
            written += 1
        return written

    # -- queries ----------------------------------------------------------------

    def _row_texts(
        self,
        tenant: Optional[str] = None,
        app: Optional[str] = None,
        preset: Optional[str] = None,
        kind: Optional[str] = None,
        job_id: Optional[str] = None,
        k_min: Optional[int] = None,
        k_max: Optional[int] = None,
    ) -> List[str]:
        """The stored text of every point row that matches the filters,
        ordered by job submission, then job, then point. ``k_min`` and
        ``k_max`` bound the interference level inclusively."""
        clauses: List[str] = []
        params: List[Any] = []
        for clause, value in (
            ("jobs.tenant = ?", tenant),
            ("jobs.app = ?", app),
            ("jobs.preset = ?", preset),
            ("points.kind = ?", kind),
            ("points.job_id = ?", job_id),
            ("points.k >= ?", None if k_min is None else int(k_min)),
            ("points.k <= ?", None if k_max is None else int(k_max)),
        ):
            if value is not None:
                clauses.append(clause)
                params.append(value)
        sql = ("SELECT points.row_json FROM points JOIN jobs "
               "ON jobs.job_id = points.job_id")
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY jobs.submitted_at, points.job_id, points.idx"
        return [row[0] for row in self._conn.execute(sql, params)]

    def query_points(self, **filters: Any) -> List[Dict[str, Any]]:
        """Interference-point rows joined with their job's identity, as
        dicts; ``filters`` are :meth:`_row_texts`'s (tenant, app,
        preset, kind, job_id, k_min, k_max)."""
        return [json.loads(text) for text in self._row_texts(**filters)]

    def query_json(self, **filters: Any) -> str:
        """``json.dumps(self.query_points(**filters), sort_keys=True,
        indent=1)``, joined from the stored row texts without parsing
        or encoding one."""
        texts = self._row_texts(**filters)
        return "[\n" + ",\n".join(texts) + "\n]" if texts else "[]"

    def point_payload(self, job_id: str) -> List[Dict[str, Any]]:
        """Reconstruct the job's artifact payload exactly (the byte
        parity contract: ``json.dumps(store.point_payload(j),
        sort_keys=True, indent=1)`` equals the artifact file)."""
        rows = self.query_points(job_id=job_id)
        if not rows:
            raise ServiceError(
                f"no point rows for job {job_id!r} in {self.path}; "
                "run 'repro query --backfill' if the artifact exists"
            )
        return [{key: row[key] for key in _ARTIFACT_KEYS} for row in rows]
