"""Per-partition checkpoint / lineage store → resumable runs.

North-rule requirement (BASELINE.json): "resumable from checkpoint with
per-partition lineage + metrics". The reference has no checkpointing
(single-pass batch program, SURVEY.md §4); this is new design:

- one parquet file of violations per input partition under
  ``{out_dir}/violations/{part}.parquet``
- one commit record per partition in ``{out_dir}/manifest.jsonl``:
  part, input path, row_count, violation_count, serialized PartStats
  (the lineage + metrics record), status=committed
- commits are atomic: write to a temp file then ``os.replace`` append-style
  via per-part record files in ``{out_dir}/commits/{part}.json`` — a
  partition is committed iff its record file exists, so a killed run can
  never half-commit.

On resume, committed partitions are skipped at the READ (filtered out of
the file list before any task is launched) and their violations + stats are
loaded back from the store — final outputs are identical to an
uninterrupted run (tested in tests/test_checkpoint.py).
"""

from __future__ import annotations

import json
import os
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from fastpasta_ray import schema as S
from fastpasta_ray.sketches import PartStats


class CheckpointStore:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.violations_dir = os.path.join(out_dir, "violations")
        self.commits_dir = os.path.join(out_dir, "commits")
        os.makedirs(self.violations_dir, exist_ok=True)
        os.makedirs(self.commits_dir, exist_ok=True)

    def committed(self) -> dict[str, dict]:
        out = {}
        for fn in sorted(os.listdir(self.commits_dir)):
            if fn.endswith(".json"):
                with open(os.path.join(self.commits_dir, fn)) as f:
                    rec = json.load(f)
                out[rec["part"]] = rec
        return out

    def load_committed(
        self, committed: dict[str, dict]
    ) -> tuple[pa.Table, list[tuple[str, PartStats, dict | None]]]:
        """The committed partitions' violations, and one ``(part,
        PartStats, drift_metrics)`` record per partition — the record pass
        1 returns for a partition it validates."""
        tables, records = [], []
        for part, rec in committed.items():
            vp = os.path.join(self.violations_dir, f"{part}.parquet")
            if os.path.exists(vp):
                tables.append(pq.read_table(vp))
            records.append((part, PartStats.from_json(rec["stats"]), rec.get("drift")))
        v = pa.concat_tables(tables) if tables else S.VIOLATIONS_SCHEMA.empty_table()
        return v, records

    def commit_part(
        self,
        part: str,
        input_path: str,
        violations: pa.Table,
        stats: PartStats,
        drift: dict | None,
    ) -> None:
        """Commit ONE finished partition — called from inside the validate
        task the moment the partition's pass completes, so a killed run
        keeps every finished partition (the kill-resume test SIGKILLs the
        driver mid-pass and asserts this). Violations parquet first, then
        the atomic record: a crash between the two leaves the partition
        uncommitted → it reruns (idempotent). Temp names are per writer: a
        killed driver's tasks may still commit while a resumed run does."""
        suffix = f".{os.getpid()}.{uuid.uuid4().hex}.tmp"
        vp = os.path.join(self.violations_dir, f"{part}.parquet")
        tmp = vp + suffix
        pq.write_table(violations, tmp)
        os.replace(tmp, vp)
        rec = {
            "part": part,
            "input_path": os.path.abspath(input_path),
            "row_count": stats.row_count,
            "violation_count": violations.num_rows,
            "stats": stats.to_json(),
            "drift": drift,
            "status": "committed",
        }
        rp = os.path.join(self.commits_dir, f"{part}.json")
        tmp = rp + suffix
        with open(tmp, "w") as f:
            json.dump(rec, f)
        os.replace(tmp, rp)

