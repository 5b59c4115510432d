"""The flagship `check all` pipeline — end-to-end validation of a
sequences fixture directory.

Mirrors the reference's `fastpasta check all` lifecycle (SURVEY.md §3.1):

  pass 1 (payload): per-file streaming validate — stateless sanity checks,
      running checks, stats sketches — ONE pass over the tokens payload,
      violations + per-partition stats partials out (stages/validate.py).
  pass 2 (scalars): key checks (dup / referential / empty) over a
      column-pruned re-read of the scalar columns only, one hash-partitioned
      shuffle (checks/key_checks.py). The tokens payload never shuffles.
  finalize: merge stats partials (driver-side fold of mergeable sketches —
      the partial counts are one row per input file, tiny), drift gate vs a
      reference profile (checks/drift.py), report assembly (report.py).

Resumability: with ``out_dir`` set, per-partition violations are written as
they stream out and a commit record is appended per finished partition;
``resume=True`` skips committed partitions (state/checkpoint.py) — the
checkpoint/lineage requirement of BASELINE.json's north_rule (the reference
itself has none, SURVEY.md §4 "Checkpoint / resume").
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

import ray

from fastpasta_ray import schema as S
from fastpasta_ray.checks.drift import build_profile, custom_count_check
from fastpasta_ray.checks.key_checks import key_checks

# codes produced by the global key-check exchange (never checkpointed —
# they are cross-partition and recomputed every run)
KEY_CODES = (S.E_DUP_DOCID, S.E_ORPHAN, S.E_MANIFEST_NTOK, S.E_EMPTY_DOC)
from fastpasta_ray.sketches import PartStats
from fastpasta_ray.sources.parquet import file_dataset, part_of, sequence_files
from fastpasta_ray.stages.validate import CheckConfig, ValidateFiles


@dataclass
class CheckResult:
    violations: pa.Table          # materialized (small: capped per partition)
    stats_by_part: dict[str, PartStats]
    report: dict
    drift_metrics: dict
    profile: dict | None = None   # merged reference-profile (snapshot format)

    @property
    def any_errors(self) -> bool:  # exit-code analog (init.rs:54)
        return self.violations.num_rows > 0


def collect_table(ds: "ray.data.Dataset", schema: pa.Schema) -> pa.Table:
    """Stream a (small) dataset result into one Arrow table on the driver."""
    tables = [t for t in ds.iter_batches(batch_format="pyarrow", batch_size=None)]
    tables = [t if isinstance(t, pa.Table) else pa.Table.from_batches([t]) for t in tables]
    tables = [t.cast(schema) for t in tables if t.num_rows]
    return pa.concat_tables(tables) if tables else schema.empty_table()


def _split_sentinel(
    out: pa.Table,
) -> tuple[pa.Table, dict[str, PartStats], dict[str, dict]]:
    is_stats = pc.equal(out["code"], pa.scalar(S.STATS_SENTINEL))
    stats_rows = out.filter(is_stats)
    violations = out.filter(pc.invert(is_stats))
    stats_by_part: dict[str, PartStats] = {}
    drift_by_part: dict[str, dict] = {}
    for part, msg in zip(
        stats_rows["part"].to_pylist(), stats_rows["message"].to_pylist()
    ):
        wrapper = json.loads(msg)
        ps = PartStats.from_json(wrapper["stats"])
        if wrapper.get("drift") is not None:
            drift_by_part[part] = wrapper["drift"]
        if part in stats_by_part:
            stats_by_part[part].merge(ps)
        else:
            stats_by_part[part] = ps
    return violations, stats_by_part, drift_by_part


def run_check(
    input_dir: str,
    cfg: CheckConfig | None = None,
    *,
    manifest_path: str | None = None,
    reference_profile: dict | None = None,
    with_key_checks: bool = True,
    out_dir: str | None = None,
    resume: bool = False,
) -> CheckResult:
    """Run the full validation pass over a fixture directory."""
    cfg = cfg or CheckConfig()
    files = sequence_files(input_dir)

    committed: dict[str, dict] = {}
    if out_dir is not None:
        from fastpasta_ray.state.checkpoint import CheckpointStore

        store = CheckpointStore(out_dir)
        if resume:
            committed = store.committed()
        files_todo = [f for f in files if store.part_of(f) not in committed]
    else:
        store = None
        files_todo = files

    # ---- pass 1 (payload scan) then pass 2 (raw-task key-check exchange)
    # SEQUENTIALLY. Alternatives measured (idle box) and rejected:
    # (a) driver-thread overlap wins slightly at bench scale (2.74→2.05s)
    # but LOSES at 5M rows (4.39→6.24s) — each pass saturates the machine
    # alone, overlap just adds contention; (b) the exchange as a Dataset
    # groupby unioned into one execution pays the sort shuffle's per-block
    # constant costs (4.3s → 14.5s at 8 cpus). See BASELINE.md.
    budget = None
    if cfg.max_errors_global is not None:
        from fastpasta_ray.stages.validate import ErrorBudget

        budget = ErrorBudget.remote(cfg.max_errors_global)
    if files_todo:
        out = file_dataset(files_todo).map_batches(
            ValidateFiles(cfg, reference_profile, checkpoint_dir=out_dir, error_budget=budget),
            batch_format="pyarrow",
            batch_size=None,
        )
        out_t = collect_table(out, S.VIOLATIONS_SCHEMA)
        violations, stats_by_part, drift_metrics = _split_sentinel(out_t)
    else:
        violations, stats_by_part, drift_metrics = (
            S.VIOLATIONS_SCHEMA.empty_table(),
            {},
            {},
        )
    # stopped_early reflects whether PASS 1 actually stopped validating
    # partitions — captured before key-check counts are added (a clean
    # pass 1 followed by many key-check violations must not claim the run
    # stopped; review r3)
    stopped_early = (
        bool(ray.get(budget.exceeded.remote())) if budget is not None else False
    )
    # pass 2 skips the files pass 1 rejected with E14 (unreadable or wrong
    # schema): they have no rows to key-check, and opening one would raise
    rejected = set(
        violations.filter(pc.equal(violations["code"], S.E_SCHEMA))["part"].to_pylist()
    )
    key_files = [f for f in files if part_of(f) not in rejected]
    if with_key_checks and key_files:
        from fastpasta_ray.stages.validate import _filter_codes

        kv_t = _filter_codes(
            key_checks(
                key_files, manifest_path,
                batch_rows=cfg.batch_rows, filter_sources=cfg.filter_sources,
            ),
            cfg.enabled_codes,
        )
        if kv_t.num_rows:
            violations = pa.concat_tables([violations, kv_t])
            if budget is not None:
                # key-check violations count toward global_error_count too
                # (ADVICE r2) — they arrive after pass 1 so they can never
                # stop it and never flip stopped_early
                ray.get(budget.add.remote(kv_t.num_rows))

    # ---- restore committed partitions from the checkpoint store ----------
    # (new partitions were committed IN-TASK the moment each finished —
    # see ValidateFiles — so a killed run keeps all finished partitions;
    # key-check violations are global and never checkpointed)
    if store is not None and committed:
        v_prev, s_prev, d_prev = store.load_committed(committed)
        violations = pa.concat_tables([violations, v_prev])
        stats_by_part.update(s_prev)
        drift_metrics.update(d_prev)

    # ---- sort violations by position (O2 analog: error_stats.rs:36-47) ---
    if violations.num_rows:
        violations = violations.sort_by(
            [("part", "ascending"), ("row_index", "ascending"), ("code", "ascending")]
        )

    # ---- report (stats_report.rs analog) ---------------------------------
    report, profile = make_report(violations, stats_by_part, cfg, reference_profile)
    if budget is not None:
        report["stopped_early"] = stopped_early
        report["global_error_count"] = int(ray.get(budget.total.remote()))
        ray.kill(budget)

    return CheckResult(violations, stats_by_part, report, drift_metrics, profile)


def make_report(
    violations: pa.Table,
    stats_by_part: dict[str, PartStats],
    cfg: CheckConfig,
    reference_profile: dict | None,
) -> tuple[dict, dict]:
    """Final summary dict — the reference's report table
    (stats_report.rs:16-64) as data, not formatting — plus the merged
    profile (the comparable stats-snapshot object)."""
    by_code: dict[str, int] = {}
    if violations.num_rows:
        vc = violations.group_by("code").aggregate([("code", "count")])
        by_code = dict(
            zip(vc["code"].to_pylist(), vc["code_count"].to_pylist())
        )
    profile = build_profile(stats_by_part, by_code)
    total_rows = profile["row_count"]
    extra_msgs = custom_count_check(total_rows, cfg.expected_row_count)
    report = {
        "total_rows": total_rows,                      # "Total RDHs" analog
        "total_tokens": profile["token_count"],
        "total_parts": len(stats_by_part),             # links observed analog
        "parts": profile["parts"],
        "doc_id_unique_estimate": profile["doc_id_hll_estimate"],
        "n_tok": {
            "min": profile["n_tok_min"],
            "max": profile["n_tok_max"],
            "quantiles": profile["n_tok_quantiles"],
        },
        "token_range": {"min": profile["token_min"], "max": profile["token_max"]},
        "vocab_seen_count": profile["vocab_seen_count"],
        "source_histogram": profile["source_histogram"],
        "violations_total": violations.num_rows,
        # G6 analog (staves_with_errors, error_stats.rs:64-96): data
        # partitions that produced at least one violation
        "parts_with_errors": sorted(
            set(violations["part"].to_pylist()) & set(stats_by_part)
        )
        if violations.num_rows
        else [],
        "violations_by_code": dict(sorted(by_code.items())),
        "unique_error_codes": sorted(by_code),         # G5 analog
        # APE ladder analog: per-partition FATAL segment headers (the
        # reference's running fatal_lanes list, readout_frame.rs:40-50)
        "fatal_segments": {
            p: sorted(s.fatal_segments)
            for p, s in sorted(stats_by_part.items())
            if s.fatal_segments
        },
        "custom_check_messages": extra_msgs,
        "any_errors": violations.num_rows > 0 or bool(extra_msgs),
    }
    return report, profile


def error_display_lines(violations: pa.Table, limit: int | None = None) -> list[str]:
    """Formatted error lines, position-sorted, optionally capped —
    the ErrPrinter analog (err_printer.rs:14-47)."""
    t = violations
    if limit is not None:
        t = t.slice(0, limit)
    return [
        f"{p}:{r}: {m}"
        for p, r, m in zip(
            t["part"].to_pylist(), t["row_index"].to_pylist(), t["message"].to_pylist()
        )
    ]


def _toml_key(k: str) -> str:
    import re

    return k if re.fullmatch(r"[A-Za-z0-9_-]+", k) else json.dumps(k)


def _toml_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, float)):
        return repr(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_toml_value(x) for x in v) + "]"
    raise TypeError(f"unsupported TOML value: {type(v)}")


def _toml_emit(d: dict, prefix: str, lines: list[str]) -> None:
    scalars = {k: v for k, v in d.items() if not isinstance(v, dict) and v is not None}
    subs = {k: v for k, v in d.items() if isinstance(v, dict)}
    if prefix:
        lines.append(f"[{prefix}]")
    for k in sorted(scalars):
        lines.append(f"{_toml_key(k)} = {_toml_value(scalars[k])}")
    for k in sorted(subs):
        key = _toml_key(k)
        _toml_emit(subs[k], f"{prefix}.{key}" if prefix else key, lines)


def dump_toml(payload: dict) -> str:
    """Minimal TOML emitter for the snapshot shape (nested dicts, scalar
    lists, scalars). TOML has no null — None-valued keys are omitted, the
    documented difference from the JSON snapshot."""
    lines: list[str] = []
    _toml_emit(payload, "", lines)
    return "\n".join(lines) + "\n"


def write_stats(result, path: str) -> None:
    """Stats snapshot sink (StatsCollector::write_stats analog,
    stats_collector.rs:161-175 — the reference writes JSON *and* TOML; the
    format here follows the file extension: ``.toml`` → TOML, else JSON).

    Accepts a CheckResult (writes {"report", "profile"} — the profile is
    the object a later run compares against via --input-stats) or a plain
    dict (written as-is)."""
    if isinstance(result, CheckResult):
        payload = {"report": result.report, "profile": result.profile}
    else:
        payload = result
    with open(path, "w") as f:
        if path.endswith(".toml"):
            f.write(dump_toml(payload))
        else:
            json.dump(payload, f, indent=2, sort_keys=True)


def load_stats_profile(path: str) -> dict:
    """Read a snapshot written by write_stats (or a bare profile dict);
    JSON or TOML by extension."""
    if path.endswith(".toml"):
        import tomllib

        with open(path, "rb") as f:
            d = tomllib.load(f)
    else:
        with open(path) as f:
            d = json.load(f)
    return d.get("profile", d)


def write_violations(violations: pa.Table, out_dir: str) -> list[str]:
    """Partitioned violations sink: one parquet file per data partition
    (resumable layout — never one giant file). Returns written paths."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    parts = sorted(set(violations["part"].to_pylist())) if violations.num_rows else []
    for part in parts:
        pv = violations.filter(pc.equal(violations["part"], pa.scalar(part)))
        p = os.path.join(out_dir, f"{part}.parquet")
        tmp = p + ".tmp"
        pq.write_table(pv, tmp)
        os.replace(tmp, p)
        paths.append(p)
    return paths
