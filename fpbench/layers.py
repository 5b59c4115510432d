"""Per-layer metrics of a traced run, from the spans and counters in a
``tracing.Tracer``. Pass-level numbers come from traced ``run_check``
jobs, layer numbers from the in-process replays, query numbers from traced
board sweeps; each is the median over those jobs. A layer a workload does
not exercise reads 0."""

from __future__ import annotations

import json
import os
import statistics

from fpbench.inputs import BOARD

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(_ROOT, "BENCHMARK.json")) as _f:
    # name -> unit of every per-layer metric, as BENCHMARK.json lists them
    PER_LAYER: dict[str, str] = {m["name"]: m["unit"] for m in json.load(_f)["per_layer"]}

# per-layer metric -> (span total | counter) and the jobs it is read from
_FROM_CHECK_JOBS = {
    "check.pass1_s": ("span", "check.pass1"),
    "check.pass2_s": ("span", "check.pass2"),
    "check.finalize_s": ("span", "check.finalize"),
    "key_checks.exchange_rows": ("count", "exchange_rows"),
    "key_checks.exchange_bytes": ("count", "exchange_bytes"),
    "key_checks.map_tasks": ("count", "map_tasks"),
    "key_checks.recover_s": ("span", "key_checks.recover"),
    "key_checks.candidates": ("count", "candidates"),
}
_FROM_REPLAYS = {
    "parquet.decode_s": ("span", "parquet.decode"),
    "parquet.rows": ("count", "parquet.rows"),
    "parquet.batches": ("count", "parquet.batches"),
    "parquet.bytes": ("count", "parquet.bytes"),
    "sketches.token_scan_s": ("span", "sketches.token_scan"),
    "sketches.hash_s": ("span", "sketches.hash"),
    "checks.row_checks_s": ("span", "checks.row_checks"),
    "checks.running_checks_s": ("span", "checks.running_checks"),
    "checks.grammar_s": ("span", "checks.grammar"),
    "checks.violations_emitted": ("count", "violations"),
    "key_checks.map_read_s": ("span", "key_checks.map_read"),
    "checkpoint.commit_s": ("span", "checkpoint.commit"),
    "checkpoint.commits": ("count", "checkpoint.commits"),
    "checkpoint.bytes_written": ("count", "checkpoint.bytes_written"),
}


def _med(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tr, check_jobs: list[int], replay_jobs: list[int],
                  board_jobs: list[int], plain_walls: list[float],
                  traced_walls: list[float]) -> dict[str, tuple[float, str, str]]:
    """``{name: (value, unit, note)}`` for every ``PER_LAYER`` metric."""

    def read(kind: str, key: str, job: int) -> float:
        return tr.total(job, key) if kind == "span" else tr.counts[job].get(key, 0.0)

    out: dict[str, tuple[float, str, str]] = {}
    for jobs, table, note in (
        (check_jobs, _FROM_CHECK_JOBS, f"median of {len(check_jobs)} traced jobs"),
        (replay_jobs, _FROM_REPLAYS, f"median of {len(replay_jobs)} in-process replays"),
    ):
        for name, (kind, key) in table.items():
            out[name] = (_med([read(kind, key, j) for j in jobs]), PER_LAYER[name], note)

    def per_job(fn, jobs):
        return _med([fn(j) for j in jobs])

    note = f"median of {len(check_jobs)} traced jobs"
    out["key_checks.reduce_tasks"] = (per_job(
        lambda j: tr.counts[j].get("reduce_tasks", 0) + tr.counts[j].get("packed_reduce_tasks", 0),
        check_jobs), PER_LAYER["key_checks.reduce_tasks"], note)
    out["key_checks.packed"] = (per_job(
        lambda j: float(tr.counts[j].get("packed_reduce_tasks", 0) > 0), check_jobs),
        PER_LAYER["key_checks.packed"], note + "; 1 = packed exchange, 0 = slim")
    out["key_checks.useful_ratio"] = (per_job(
        lambda j: tr.counts[j].get("recovered", 0) / tr.counts[j]["candidates"]
        if tr.counts[j].get("candidates") else 0.0, check_jobs),
        PER_LAYER["key_checks.useful_ratio"], note + "; violations out per candidate in")
    out["validate.self_s"] = (per_job(lambda j: tr.self_time(j, "validate.replay"), replay_jobs),
                              PER_LAYER["validate.self_s"],
                              "replayed pass 1 minus its child spans")

    note = f"median of {len(board_jobs)} traced sweeps"
    for q in BOARD:
        out[f"queries.{q}_s"] = (per_job(lambda j: tr.total(j, f"queries.{q}"), board_jobs),
                                 PER_LAYER[f"queries.{q}_s"], note)
    out["queries.collect_s"] = (per_job(lambda j: tr.total(j, "queries.collect"), board_jobs),
                                PER_LAYER["queries.collect_s"],
                                note + "; time in pipelines.queries._to_table")
    out["queries.collect_calls"] = (per_job(
        lambda j: tr.counts[j].get("queries.collect_calls", 0), board_jobs),
        PER_LAYER["queries.collect_calls"], note)

    if plain_walls and traced_walls:
        ratio = _med(traced_walls) / _med(plain_walls) - 1.0
    else:
        ratio = 0.0
    out["trace.overhead_ratio"] = (
        ratio, PER_LAYER["trace.overhead_ratio"],
        f"traced wall_s (n={len(traced_walls)}) / untraced (n={len(plain_walls)}) - 1")
    return {name: out[name] for name in PER_LAYER}


def zero_metrics(note: str) -> dict[str, tuple[float, str, str]]:
    return {name: (0.0, unit, note) for name, unit in PER_LAYER.items()}
