"""The flagship `check all` pipeline — end-to-end validation of a
sequences fixture directory.

Mirrors the reference's `fastpasta check all` lifecycle (SURVEY.md §3.1):

  footers: the driver reads, once, the footer of every file a task opens
      (``sources.parquet.read_footers``). A partition that cannot be read
      or lacks the run schema gets its E14 there (``schema_violation``)
      and no task opens it; the other footers size the exchange.
  pass 1 (one read): per-file streaming validate in raw Ray tasks —
      stateless sanity checks, running checks, stats sketches — ONE read of
      each partition (stages/validate.py). Each task returns its
      violations table, one typed ``(part, PartStats, drift_metrics)``
      record per file, and the key-check exchange's map side: its
      ``(h, loc, n_tok)`` hash shards, one per reduce task, cut from the
      batches it already decoded.
  pass 2 (exchange): key checks (dup / referential / empty) reduce pass 1's
      shards plus the manifest's in one hash-partitioned shuffle
      (checks/key_checks.py), then recover the few violating rows by
      targeted reads. The tokens payload never shuffles. Only partitions
      pass 1 did not read in this run (committed by an earlier run, or
      skipped by the global error budget) get a column-pruned scalar read;
      their schemas were tested with the footers, not again here.
  finalize: pass 1's and the checkpoint's records, one per input file,
      give the per-partition stats; one in-memory fold of those mergeable
      sketches gives the run's profile (checks/drift.py), and the report
      is assembled from both.

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
from fastpasta_ray.checks.key_checks import key_checks, plan_exchange
from fastpasta_ray.sketches import PartStats
from fastpasta_ray.sources.parquet import cluster_cpus, groups, part_of, read_footers
from fastpasta_ray.sources.parquet import sequence_files, write_file
from fastpasta_ray.stages.validate import (
    CheckConfig,
    ErrorBudget,
    ValidateFiles,
    _filter_codes,
    validate_task,
)

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


def collect_table(refs: list, schema: pa.Schema) -> pa.Table:
    """Fetch pass 1's per-task tables (small: violations are capped per
    partition) into one Arrow table on the driver."""
    tables = [t for t in ray.get(refs) if t.num_rows]
    return pa.concat_tables(tables) if tables else schema.empty_table()


# fpbench/tracing.py wraps this name on every benchmark run and may not change with the engine
def _split_sentinel(
    records: list[tuple[str, PartStats, dict | None]],
) -> tuple[dict[str, PartStats], dict[str, dict]]:
    """Split ``(part, PartStats, drift_metrics)`` records — pass 1's and
    the checkpoint's alike — into per-partition stats and drift metrics.
    No part repeats: parts are the file stems of one directory, pass 1
    validates only the parts not committed when the run started, and the
    checkpoint loads only those committed ones."""
    stats_by_part = {part: ps for part, ps, _ in records}
    drift_by_part = {part: d for part, _, d in records if d is not None}
    return stats_by_part, drift_by_part


def schema_violation(path: str, footer, read_payload: bool = True) -> pa.Table | None:
    """E14, the set-once schema check (G7 analog, rdh_stats.rs:41-73), from
    the file's ``read_footers`` entry: the run schema, ``tokens`` only when
    the payload is read. A file that cannot be read or deviates fails as a
    partition, not the run: this one row. None for a good file."""
    if isinstance(footer, Exception):  # unreadable file → schema violation too
        problem = [f"unreadable parquet file: {footer}"]
    else:
        file_schema = footer.schema.to_arrow_schema()
        want = {f.name: f.type for f in S.SEQUENCES_SCHEMA}
        if not read_payload:
            want = {k: v for k, v in want.items() if k != "tokens"}
        got = {n: file_schema.field(n).type for n in file_schema.names if n in want}
        missing = [n for n in want if n not in file_schema.names]
        wrong = {n: f"{t} != {want[n]}" for n, t in got.items() if t != want[n]}
        problem = [f"missing columns {missing}"] if missing else []
        if wrong:
            problem.append(f"wrong types {wrong}")
    if not problem:
        return None
    # the partition name comes from the path: a zero-row file has no batch
    return S.violations(
        part_of(path), -1, None, S.E_SCHEMA, "__schema__",
        f"schema mismatch: {'; '.join(problem)}",
    )


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
    else:
        store = None

    # ---- footers of the files a task opens in this run: with key checks
    # every partition and the manifest, else the uncommitted partitions. A
    # partition that fails schema_violation stays out of both passes.
    keyed = with_key_checks and bool(files)
    paths = [f for f in files if keyed or part_of(f) not in committed]
    if keyed and manifest_path is not None:
        paths.append(manifest_path)
    footer = dict(zip(paths, read_footers(paths)))
    e14 = [schema_violation(f, footer[f], cfg.read_payload) if f in footer else None
           for f in files]
    n_parts = 0
    if keyed:
        n_parts = plan_exchange(
            [footer[f] if v is None else None for f, v in zip(files, e14)],
            footer.get(manifest_path),
        )

    # ---- pass 1: one read per partition. Raw Ray tasks (the exchange's
    # scheduling model; no Ray Data execution) validate groups of files
    # and cut the exchange's sequence-side shards from the same decoded
    # batches, so n_parts is fixed before they launch. Rejected earlier
    # (BASELINE.md): a separate key-check read run concurrently with pass 1
    # (won at bench scale, 2.74→2.05s, but lost at 5M rows, 4.39→6.24s:
    # each pass saturated the machine alone; fusing the reads removes the
    # work instead), and the exchange as a Dataset groupby in one execution
    # (4.3s → 14.5s at 8 cpus).
    todo = [i for i, f in enumerate(files) if e14[i] is None and part_of(f) not in committed]
    budget = None
    if cfg.max_errors_global is not None:
        budget = ErrorBudget.remote(cfg.max_errors_global)
    validator = ray.put(
        ValidateFiles(cfg, reference_profile, checkpoint_dir=out_dir, error_budget=budget)
    )
    # each task returns [violations, records, *shards]
    outs = [
        validate_task.options(num_returns=2 + n_parts).remote(
            validator, [files[i] for i in idxs], idxs, n_parts
        )
        for idxs in groups(todo, 4 * cluster_cpus())
    ]
    violations = collect_table([o[0] for o in outs], S.VIOLATIONS_SCHEMA)
    records = [r for rs in ray.get([o[1] for o in outs]) for r in rs]
    # stopped_early reflects whether PASS 1 actually stopped validating
    # partitions — captured before the E14 and key-check counts are added
    # (a clean pass 1 followed by many key-check violations must not claim
    # the run stopped; review r3)
    stopped_early = (
        bool(ray.get(budget.exceeded.remote())) if budget is not None else False
    )
    late = [v for v in e14 if v is not None]
    if n_parts and len(late) < len(files):
        # pass 2: the exchange's reduce and recovery over pass 1's shards;
        # only partitions pass 1 did not reach in this run (committed
        # earlier, or skipped by the global budget) are read again
        validated = {part for part, _, _ in records}
        late.append(_filter_codes(
            key_checks(
                files, manifest_path,
                batch_rows=cfg.batch_rows, filter_sources=cfg.filter_sources,
                n_parts=n_parts, manifest_footer=footer.get(manifest_path),
                seq_shards=[o[2:] for o in outs],
                in_shards=[i for i, f in enumerate(files)
                           if e14[i] is not None or part_of(f) in validated],
            ),
            cfg.enabled_codes,
        ))
    violations = pa.concat_tables([violations, *late])
    if budget is not None:
        # E14 and key-check violations count toward global_error_count too
        # (ADVICE r2); they arrive after pass 1, so they can never stop it
        # and never flip stopped_early
        ray.get(budget.add.remote(sum(t.num_rows for t in late)))

    # ---- restore committed partitions from the checkpoint store ----------
    # (new partitions were committed IN-TASK the moment each finished —
    # see ValidateFiles — so a killed run keeps all finished partitions;
    # key-check violations are global and never checkpointed)
    if store is not None and committed:
        v_prev, r_prev = store.load_committed(committed)
        violations = pa.concat_tables([violations, v_prev])
        records += r_prev
    stats_by_part, drift_metrics = _split_sentinel(records)

    # ---- sort violations by position (O2 analog: error_stats.rs:36-47) ---
    # doc_id breaks the ties the position leaves (every E701 row sits at
    # __manifest__:-1), so the order never follows the reduce task count
    if violations.num_rows:
        violations = violations.sort_by(
            [("part", "ascending"), ("row_index", "ascending"), ("code", "ascending"),
             ("doc_id", "ascending")]
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

    os.makedirs(out_dir, exist_ok=True)
    paths = []
    parts = sorted(set(violations["part"].to_pylist())) if violations.num_rows else []
    for part in parts:
        p = os.path.join(out_dir, f"{part}.parquet")
        write_file(p, [violations.filter(pc.equal(violations["part"], pa.scalar(part)))])
        paths.append(p)
    return paths
