"""Results store: the point index behind ``repro query``, in one
SQLite file.

The per-job JSON artifacts (``results/<job>.json``) are the service's
*durability* format — atomic, human-readable, byte-comparable in the
chaos drills — but they are opaque to queries: answering "every
capacity-sweep point tenant alice ran on the xeon preset with k ≤ 3"
means opening every file and replaying the broker log for the job
identities. The store indexes the artifacts' points: one ``points`` row
per interference point (k, slowdown, per-core miss rates and
bandwidths, timings) and one ``jobs`` row per completed job holding
only the identity the filters need (tenant, app, preset, trace id,
submission time). Job *state* is not mirrored here; ``repro queue``
reads it from the broker log.

Design rules:

- **The artifact stays authoritative.** The store is derived data,
  populated by the agent right after a fenced ``complete`` and
  repairable at any time via :meth:`ResultsStore.backfill`, which
  re-reads the artifacts. Nothing in the service's exactly-once
  argument depends on the store.
- **Byte parity with the artifact.** Point rows keep the artifact's
  exact ``repr``-float strings (alongside derived numeric columns for
  range queries), so :meth:`point_payload` reconstructs the artifact
  payload exactly and the ``service-smoke`` CI job can assert
  byte-for-byte equality after a backfill.
- **WAL mode, one writer per process.** Each agent process owns one
  connection; SQLite's WAL journal lets the fleet's writers interleave
  under ``busy_timeout`` while ``repro query`` readers never block.
- **Schema-versioned.** The ``meta`` table records
  :data:`STORE_SCHEMA`; opening a store written by a different schema
  fails loudly instead of silently misreading rows.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional

from ..errors import ServiceError
from .broker import DONE, DurableBroker, JobRecord

#: Bump on any change to the table layout below.
STORE_SCHEMA = 2

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
    job_id             TEXT NOT NULL REFERENCES jobs(job_id),
    idx                INTEGER NOT NULL,
    kind               TEXT NOT NULL,
    k                  INTEGER NOT NULL,
    slowdown           REAL,
    t_access_ns        REAL NOT NULL,
    makespan_ns        TEXT NOT NULL,
    time_per_access_ns TEXT NOT NULL,
    main_cores_json    TEXT NOT NULL,
    l3_miss_rates_json TEXT NOT NULL,
    bandwidths_json    TEXT NOT NULL,
    PRIMARY KEY (job_id, idx)
);
CREATE INDEX IF NOT EXISTS points_k ON points(k);
"""


def _point_rows(job_id: str, payload: Iterable[Dict[str, Any]]) -> List[tuple]:
    """Flatten an artifact payload into ``points`` rows, deriving the
    per-point slowdown against the job's lowest-k point (the paper's
    uncontended baseline, k=0 in every shipped sweep)."""
    points = list(payload)
    baseline: Optional[float] = None
    if points:
        base_point = min(points, key=lambda p: int(p["k"]))
        base_t = float(base_point["time_per_access_ns"])
        baseline = base_t if base_t > 0 else None
    rows = []
    for idx, point in enumerate(points):
        t_access = float(point["time_per_access_ns"])
        slowdown = (t_access / baseline) if baseline else None
        rows.append((
            job_id,
            idx,
            str(point["kind"]),
            int(point["k"]),
            slowdown,
            t_access,
            str(point["makespan_ns"]),
            str(point["time_per_access_ns"]),
            json.dumps(point["main_cores"], sort_keys=True,
                       separators=(",", ":")),
            json.dumps(point["l3_miss_rates"], sort_keys=True,
                       separators=(",", ":")),
            json.dumps(point["bandwidths_Bps"], sort_keys=True,
                       separators=(",", ":")),
        ))
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
            elif int(row["value"]) != STORE_SCHEMA:
                raise ServiceError(
                    f"results store {self.path} has schema "
                    f"{row['value']}, this build expects {STORE_SCHEMA}; "
                    "migrate or rebuild it with 'repro query --backfill' "
                    "against a fresh file"
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
        """Write one completed job's identity row and replace its point
        rows in a single transaction. Idempotent: a zombie attempt
        racing its replacement writes identical rows — point purity
        again, now at the store layer."""
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
                """
                INSERT INTO points(job_id, idx, kind, k, slowdown,
                                   t_access_ns, makespan_ns,
                                   time_per_access_ns, main_cores_json,
                                   l3_miss_rates_json, bandwidths_json)
                VALUES(?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                _point_rows(job.id, payload),
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

    @staticmethod
    def _filters(
        clauses: List[str], params: List[Any], **where: Any
    ) -> None:
        for column, value in where.items():
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)

    def query_points(
        self,
        tenant: Optional[str] = None,
        app: Optional[str] = None,
        preset: Optional[str] = None,
        kind: Optional[str] = None,
        job_id: Optional[str] = None,
        k_min: Optional[int] = None,
        k_max: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Interference-point rows joined with their job's identity
        columns, ordered by job then k. ``k_min``/``k_max`` bound the
        interference level inclusively."""
        clauses: List[str] = []
        params: List[Any] = []
        self._filters(clauses, params, **{
            "jobs.tenant": tenant, "jobs.app": app, "jobs.preset": preset,
            "points.kind": kind, "points.job_id": job_id,
        })
        if k_min is not None:
            clauses.append("points.k >= ?")
            params.append(int(k_min))
        if k_max is not None:
            clauses.append("points.k <= ?")
            params.append(int(k_max))
        sql = (
            "SELECT points.*, jobs.tenant, jobs.app, jobs.preset, "
            "jobs.trace_id FROM points JOIN jobs "
            "ON jobs.job_id = points.job_id"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY jobs.submitted_at, points.job_id, points.idx"
        out = []
        for row in self._conn.execute(sql, params):
            record = dict(row)
            record["main_cores"] = json.loads(record.pop("main_cores_json"))
            record["l3_miss_rates"] = json.loads(
                record.pop("l3_miss_rates_json"))
            record["bandwidths_Bps"] = json.loads(
                record.pop("bandwidths_json"))
            out.append(record)
        return out

    def point_payload(self, job_id: str) -> List[Dict[str, Any]]:
        """Reconstruct the job's artifact payload exactly (the byte
        parity contract: ``json.dumps(store.point_payload(j),
        sort_keys=True, indent=1)`` equals the artifact file)."""
        rows = self._conn.execute(
            "SELECT * FROM points WHERE job_id=? ORDER BY idx", (job_id,)
        ).fetchall()
        if not rows:
            raise ServiceError(
                f"no point rows for job {job_id!r} in {self.path}; "
                "run 'repro query --backfill' if the artifact exists"
            )
        return [
            {
                "kind": row["kind"],
                "k": row["k"],
                "makespan_ns": row["makespan_ns"],
                "main_cores": json.loads(row["main_cores_json"]),
                "l3_miss_rates": json.loads(row["l3_miss_rates_json"]),
                "bandwidths_Bps": json.loads(row["bandwidths_json"]),
                "time_per_access_ns": row["time_per_access_ns"],
            }
            for row in rows
        ]
