#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size.

    python3 fpbench/selftest.py

For every workload, with tracing off and on, it checks that the run prints
every metric ``BENCHMARK.json`` names, with its unit, both as a metric line
and in the final JSON line, that no job failed and that ``setup_s`` is the
median of every cold set-up. It then checks that a deliberately corrupted expected answer is
reported as a failure (the answer check really checks), that the job
watchdog fires, that ``predictions.json`` covers every per-layer metric,
and that the benchmark refuses to run, without printing a result, when the
engine is absent. Exits non-zero on the first problem.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)
from fpbench.run import SETUPS  # noqa: E402
from fpbench.session import Watchdog  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def _run(args: list[str], cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join("fpbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


def _tiny(workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return _run(["--workload", workload, "--seed", "7", "--seconds", "5", "--trace",
                 str(trace), "--size", "tiny", *extra])


# traced runs: layers each workload must exercise (> 0) or leave idle (== 0)
BUSY = {
    "payload_scan": ["check.pass1_s", "check.pass2_s", "parquet.decode_s",
                     "sketches.token_scan_s", "checks.grammar_s"],
    "key_exchange": ["check.pass2_s", "key_checks.exchange_rows", "key_checks.candidates",
                     "checkpoint.commits"],
    "query_folds": [f"queries.{q}_s" for q in (
        "lineitem_agg", "top_orders", "top_docs_per_source", "q12_priority_lines",
        "embedding_stats", "quantile_filter", "budget_trim", "ivf_similarity",
        "minhash_pairs", "decontam_clean_count")] + ["queries.collect_calls"],
}
IDLE = {
    "payload_scan": ["checkpoint.commits", "queries.collect_calls"],
    "key_exchange": ["sketches.token_scan_s", "checks.grammar_s", "queries.collect_calls"],
    "query_folds": ["check.pass1_s", "check.pass2_s", "check.finalize_s", "parquet.decode_s",
                    "parquet.rows", "parquet.batches", "parquet.bytes"],
}


def _ray_leftovers() -> list[int]:
    """Processes still running from the benchmark's Ray sessions."""
    from fpbench.session import stale_processes

    return stale_processes(os.path.join(ROOT, ".fpb", "ray"))


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def _result(p: subprocess.CompletedProcess, label: str) -> dict:
    _check(p.returncode == 0, f"{label}: exit code {p.returncode}\n{p.stderr[-2000:]}")
    lines = p.stdout.strip().splitlines()
    _check(bool(lines), f"{label}: no output")
    res = json.loads(lines[-1])
    _check(set(res) == RESULT_KEYS, f"{label}: result keys {sorted(res)}")
    _check(isinstance(res["attempted"], int) and res["attempted"] >= 1,
           f"{label}: attempted {res['attempted']}")
    return res


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    specs = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for w in (x["name"] for x in bench["workloads"]):
        for trace in (0, 1):
            label = f"{w} trace={trace}"
            p = _tiny(w, trace)
            res = _result(p, label)
            _check(res["correct"] and res["failed"] == 0,
                   f"{label}: failed {res['failed']}/{res['attempted']}\n{p.stdout[-1500:]}")
            names = [m["name"] for m in specs[trace]]
            _check(sorted(res["metrics"]) == sorted(names),
                   f"{label}: metrics {sorted(set(res['metrics']) ^ set(names))} differ")
            for m in specs[trace]:
                got = res["metrics"][m["name"]]
                _check(got["unit"] == m["unit"], f"{label}: {m['name']} unit {got['unit']}")
                _check(isinstance(got["value"], (int, float)), f"{label}: {m['name']} value")
                line = rf"^{re.escape(m['name'])} = \S+ {re.escape(m['unit'])}  \["
                _check(re.search(line, p.stdout, re.M) is not None,
                       f"{label}: no metric line for {m['name']}")
            _check(re.search(r"^fail_ratio = 0 ratio", p.stdout, re.M) is not None,
                   f"{label}: fail_ratio line missing or not 0")
            if trace == 0:
                _check(re.search(rf"^setup_s = \S+ s  \[median of {SETUPS} cold", p.stdout,
                                 re.M) is not None, f"{label}: setup_s is not a median of "
                                                    f"{SETUPS} cold set-ups")
                _check(re.search(r"^wall_s\.tail = \S+ s  \[(p\d+|max) \(n=\d+", p.stdout,
                                 re.M) is not None, f"{label}: no wall_s.tail line")
            else:
                vals = {k: v["value"] for k, v in res["metrics"].items()}
                busy = [m for m in BUSY[w] if not vals[m] > 0]
                idle = [m for m in IDLE[w] if vals[m] != 0]
                _check(not busy and not idle, f"{label}: should be > 0: {busy}; "
                                              f"should be 0: {idle}")
            _check(not _ray_leftovers(), f"{label}: Ray processes left behind")
            print(f"ok  {label}: {res['attempted']} jobs, {len(names)} metrics", flush=True)

        p = _tiny(w, 0, "--corrupt-expected")
        res = _result(p, f"{w} corrupted")
        _check(not res["correct"] and res["failed"] >= 1,
               f"{w}: a corrupted expected answer was not reported as a failure")
        _check(re.search(r"^fail_ratio = 1 ratio", p.stdout, re.M) is not None,
               f"{w}: corrupted run should fail every job")
        print(f"ok  {w} corrupted expected answer: {res['failed']}/{res['attempted']} "
              "jobs failed", flush=True)

    # the per-job deadline fires once, with the label of the armed job
    fired: list[str] = []
    wd = Watchdog(fired.append)
    wd.arm("stuck job", 0.05)
    time.sleep(1.0)
    wd.stop()
    _check(fired == ["stuck job"], f"watchdog: fired {fired}")
    print("ok  the job watchdog fires on a missed deadline", flush=True)

    with open(os.path.join(HERE, "predictions.json")) as f:
        pred = json.load(f)
    covered = {m for row in pred["layers"] for m in row["metrics"]}
    missing = {m["name"] for m in bench["per_layer"]} - covered
    _check(not missing, f"predictions.json lacks {sorted(missing)}")
    print("ok  predictions.json covers every per-layer metric")

    # without the engine next to it the benchmark must refuse, printing nothing
    bare = os.path.join(ROOT, ".fpb", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "fpbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    p = _run(["--workload", "payload_scan", "--seed", "1", "--seconds", "1",
              "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    _check(p.returncode != 0 and not p.stdout.strip(),
           f"bare directory: exit {p.returncode}, stdout {p.stdout[-300:]!r}")
    print("ok  refuses to run without the engine")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
