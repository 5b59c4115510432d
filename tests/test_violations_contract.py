"""The violation record contract: every producer of violation rows returns
exactly ``VIOLATIONS_SCHEMA`` (typed even when it flags nothing) with
messages ``[{code}] detail``, because every one of them builds its table
through ``schema.violations``; pass 1's checks return hit rows, and
``schema.materialize`` is the one place they become violations. Source
guards keep it that way, and keep pass 1's stats out of the violations
table."""

import ast
import os
import re

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import fastpasta_ray
from fastpasta_ray import schema as S
from fastpasta_ray.checks import key_checks as K
from fastpasta_ray.checks.drift import build_profile, drift_check
from fastpasta_ray.checks.grammar import GrammarConfig
from fastpasta_ray.checks.registry import check_max_len, run_custom_checks
from fastpasta_ray.checks.running_checks import RunningState
from fastpasta_ray.pipelines.check import schema_violation
from fastpasta_ray.sketches import PartStats, hash_strings
from fastpasta_ray.sources.parquet import read_footers
from fastpasta_ray.stages.validate import CheckConfig, ValidateFiles
from tests import test_grammar as gc
from tests import test_row_checks as rc


def _batch(doc_idx, tokens, source="web"):
    n = len(tokens)
    return pa.table(
        {
            "part": ["part-0000"] * n,
            "row_index": pa.array(range(n), pa.int64()),
            "doc_id": [f"web/0000/{i:08d}" for i in doc_idx],
            "tokens": pa.array(tokens, pa.list_(pa.int32())),
            "n_tok": pa.array([len(t) for t in tokens], pa.int32()),
            "source": [source] * n,
        },
        schema=S.SEQUENCES_POS_SCHEMA,
    )


CLEAN = [[1, 5, 6, 2], [1, 7, 2]]


def row_checks(trip, tmp_path):
    toks = [[1, S.VOCAB_SIZE + 3, 2], [1, 7, 2]] if trip else CLEAN
    return rc.row_checks(_batch([1, 2], toks))


def grammar(trip, tmp_path):
    toks = [[9, 5, 0, 6], [1, 7, 2]] if trip else CLEAN
    return gc.grammar(_batch([1, 2], toks), GrammarConfig(1, 2, 0))


def segments(trip, tmp_path):
    # delimiter 3; headers must match, 2..3 segments; 90 warns, 91 is fatal
    toks = [[4, 5, 3, 6, 90], [4, 3, 3, 4, 91]] if trip else [[4, 5, 3, 4, 6], [4, 3, 4]]
    table, _ = gc.segments(
        _batch([1, 2], toks), delim_id=3, min_segments=2, max_segments=3,
        warning_sentinels=(90,), fatal_sentinels=(91,),
    )
    return table


def running_checks(trip, tmp_path):
    return rc.running(RunningState(None), _batch([5, 3] if trip else [3, 5], CLEAN))


def custom_max_len(trip, tmp_path):
    cfg = CheckConfig(extra={"max_len": 3 if trip else 10, "custom_checks": ("max_len",)})
    table = check_max_len(_batch([1, 2], CLEAN), cfg)
    assert table.equals(run_custom_checks(_batch([1, 2], CLEAN), cfg))
    return table


def drift(trip, tmp_path):
    def stats(n_tok, source):
        ps = PartStats()
        ps.n_tok_hist.add(np.asarray(n_tok, dtype=np.int64))
        ps.source_hist.add_arrow(pa.array(source))
        return ps

    ref = stats([4] * 50, ["web"] * 50)
    part = stats([900] * 50, ["code"] * 50) if trip else stats([4] * 50, ["web"] * 50)
    table, _ = drift_check({"part-0000": part}, build_profile({"ref": ref}))
    return table


def _validate(path):
    return ValidateFiles(CheckConfig()).validate_files([path], [0], 0)[0]


def _good_file(tmp_path):
    path = str(tmp_path / "part-0000.parquet")
    pq.write_table(_batch([1, 2], CLEAN).drop_columns(["part", "row_index"]), path)
    return path


def _schema_check(path):
    """The driver's E14 from the file's footer; a file that passes it goes
    on to pass 1, which returns a typed, empty table for a clean file."""
    e14 = schema_violation(path, read_footers([path])[0])
    return _validate(path) if e14 is None else e14


def e14_unreadable(trip, tmp_path):
    if not trip:
        return _schema_check(_good_file(tmp_path))
    path = str(tmp_path / "part-0000.parquet")
    with open(path, "wb") as f:
        f.write(b"not parquet")
    return _schema_check(path)


def e14_wrong_schema(trip, tmp_path):
    if not trip:
        return _schema_check(_good_file(tmp_path))
    path = str(tmp_path / "part-0000.parquet")
    pq.write_table(_batch([1, 2], CLEAN).select(["doc_id", "tokens"]), path)
    return _schema_check(path)


def recover_violations(trip, tmp_path):
    # rows 0 and 1 share a doc_id: row 1 is the E80 candidate, row 0 its
    # kept first row (a rider, never emitted on its own)
    path = _good_file(tmp_path)
    t = pq.read_table(path)
    pq.write_table(t.set_column(0, "doc_id", pa.array(["web/0000/00000001"] * 2)), path)
    h = hash_strings(pa.array(["web/0000/00000001"]))[0]
    cands = [(0, K._C_DUPREF)] + ([(1, K._C_DUP)] if trip else [])
    table = pa.table(
        {
            "h": pa.array([h] * len(cands), pa.uint64()),
            "loc": pa.array([loc for loc, _ in cands], pa.int64()),
            "n_tok": pa.array([4] * len(cands), pa.int64()),
            "exp_n_tok": pa.array([-1] * len(cands), pa.int64()),
            "cand": pa.array([c for _, c in cands], pa.int8()),
        },
        schema=K.CANDIDATE_SCHEMA,
    )
    return K._recover_violations(table, [path], None)


PRODUCERS = [
    row_checks, grammar, segments, running_checks, custom_max_len, drift,
    e14_unreadable, e14_wrong_schema, recover_violations,
]


@pytest.mark.parametrize("trip", [True, False], ids=["trips", "clean"])
@pytest.mark.parametrize("producer", PRODUCERS, ids=lambda p: p.__name__)
def test_every_producer_returns_the_violation_record(producer, trip, tmp_path):
    table = producer(trip, tmp_path)
    assert table.schema.equals(S.VIOLATIONS_SCHEMA, check_metadata=True)
    assert (table.num_rows > 0) == trip
    for code, message in zip(table["code"].to_pylist(), table["message"].to_pylist()):
        assert message.startswith(f"[{code}] "), message


def test_violation_tables_are_built_only_in_schema_module():
    """``VIOLATIONS_SCHEMA`` types a table (``schema=``) only in
    ``schema.py``, and no stats sentinel is left in the package."""
    root = os.path.dirname(fastpasta_ray.__file__)
    schema_py = os.path.join(root, "schema.py")
    typed = re.compile(r"schema\s*=\s*(S\.)?VIOLATIONS_SCHEMA\b")
    seen = 0
    for d, _, names in os.walk(root):
        for name in names:
            if not name.endswith(".py"):
                continue
            path = os.path.join(d, name)
            with open(path) as f:
                text = f.read()
            seen += 1
            if path != schema_py:
                assert not typed.search(text), path
            assert "STATS_SENTINEL" not in text and "__STATS__" not in text, path
    assert seen > 20


PASS1_CHECKS = ("row_checks.py", "grammar.py", "segments.py", "running_checks.py")


@pytest.mark.parametrize("module", PASS1_CHECKS)
def test_pass1_checks_format_no_message(module):
    """The pass-1 check modules return hit rows and call none of the
    violation builders or the message format: ``schema.materialize``
    formats the rows it keeps."""
    path = os.path.join(os.path.dirname(fastpasta_ray.__file__), "checks", module)
    with open(path) as f:
        tree = ast.parse(f.read())
    called = {
        node.func.attr if isinstance(node.func, ast.Attribute) else getattr(node.func, "id", None)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert not called & {"violations", "batch_violations", "format_message"}, path
