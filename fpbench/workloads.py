"""The three workloads: inputs prepared in a separate process (so input
generation and DuckDB never weigh on the measured process tree), one job
call, and the correctness check of a job's output."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys

from fpbench import inputs


def prepare_in_child(name: str, work_dir: str, seed: int, size_name: str,
                     generate: bool):
    """Write the inputs in a child process (``python3 -m fpbench.inputs``)
    unless ``generate`` is false (they are already there), and load the
    expected answers the child pickled into ``work_dir``."""
    if generate:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
        subprocess.run(
            [sys.executable, "-m", "fpbench.inputs", name, work_dir, str(seed), size_name],
            cwd=root, env=env, check=True, timeout=120,
        )
    # written by the child above, never by anything else
    with open(os.path.join(work_dir, inputs.EXPECTED), "rb") as f:
        return pickle.load(f)


class CheckWorkload:
    """One job = one ``run_check`` over the fixture directory."""

    def __init__(self, name: str, work_dir: str, seed: int, size_name: str, generate: bool):
        from fastpasta_ray.sources.parquet import sequence_files
        from fastpasta_ray.stages.validate import CheckConfig

        self.data_dir, self.expected = prepare_in_child(name, work_dir, seed, size_name,
                                                        generate)
        size = inputs.SIZES[size_name][name]
        self.manifest = os.path.join(self.data_dir, inputs.MANIFEST)
        self.files = sequence_files(self.data_dir)
        self.rows = size["n_parts"] * size["n_rows"]
        if name == "payload_scan":
            self.cfg = CheckConfig(**inputs.GRAMMAR)
            self.out_dir = None
            self.replay_out_dir = None
        else:
            # header-only `check all`: the tokens payload is never read
            self.cfg = CheckConfig(read_payload=False)
            self.out_dir = os.path.join(work_dir, "checkpoint")
            self.replay_out_dir = os.path.join(work_dir, "replay_checkpoint")

    def run(self):
        from fastpasta_ray.pipelines import check

        return check.run_check(
            self.data_dir, self.cfg, manifest_path=self.manifest, out_dir=self.out_dir
        )

    def check(self, res) -> str | None:
        """None when the output is correct, else what differs."""
        v = res.violations
        got = sorted(zip(v["part"].to_pylist(), v["row_index"].to_pylist(),
                         v["code"].to_pylist()))
        if got != self.expected:
            missing = sorted(set(self.expected) - set(got))[:3]
            extra = sorted(set(got) - set(self.expected))[:3]
            return (f"violations: {len(got)} rows vs {len(self.expected)} expected; "
                    f"missing {missing} extra {extra}")
        if res.report["total_rows"] != self.rows:
            return f"total_rows {res.report['total_rows']} != {self.rows}"
        return None

    def corrupt_expected(self) -> None:
        self.expected = sorted(self.expected[1:] if self.expected
                               else [("part-0000", 0, "E00")])


# Absolute tolerance per board query, on top of the oracle tests' rtol=1e-6.
# ivf_similarity's oracle rounds cosines to 4 places after float32
# arithmetic in DuckDB, while the engine computes in float64: a cosine
# within float32 error of a rounding boundary (e.g. 0.31995) rounds to
# 0.3200 on one side and 0.3199 on the other. One unit in the 4th place is
# that boundary case, not a wrong answer; which vectors are returned is
# still compared exactly.
_ATOL = {"ivf_similarity": 1.0001e-4}


class BoardWorkload:
    """One job = one sweep of the query board."""

    def __init__(self, name: str, work_dir: str, seed: int, size_name: str, generate: bool):
        self.data_dir, (rows_by_table, self.expected) = prepare_in_child(
            name, work_dir, seed, size_name, generate)
        # rows of every table each board query reads, summed per sweep
        self.rows = sum(rows_by_table[t] for tabs in inputs.BOARD.values() for t in tabs)

    def run(self) -> dict:
        import ray.data

        from fastpasta_ray.pipelines import queries

        out = {}
        for q in inputs.BOARD:
            res = queries.QUERIES[q](self.data_dir)
            # a lazy Dataset executes here, inside the timed sweep
            out[q] = res.to_pandas() if isinstance(res, ray.data.Dataset) else res
        return out

    def check(self, out: dict) -> str | None:
        import pandas as pd

        for q in inputs.BOARD:
            got = out[q]
            got = inputs.normalize(got if isinstance(got, pd.DataFrame) else got.to_pandas())
            try:
                pd.testing.assert_frame_equal(got, self.expected[q], check_dtype=True,
                                              check_exact=False, rtol=1e-6,
                                              atol=_ATOL.get(q, 0.0))
            except AssertionError as exc:
                return f"{q}: " + " ".join(str(exc).split())[:300]
        return None

    def corrupt_expected(self) -> None:
        exp = self.expected["top_orders"].copy()
        exp.loc[0, "o_totalprice"] += 1.0
        self.expected["top_orders"] = exp


def make(name: str, work_dir: str, seed: int, size_name: str, generate: bool = True):
    cls = BoardWorkload if name == "query_folds" else CheckWorkload
    return cls(name, work_dir, seed, size_name, generate)
