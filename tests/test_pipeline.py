"""Golden-corpus integration tests: full pipeline on each seeded fixture,
asserting exact violation sets + report counters — the analog of the
reference's per-corpus-file integration tests
(fastpasta/tests/fastpasta_1_hbf_bad_its_payload.rs:15-51)."""

import os

import numpy as np
import pytest

from fastpasta_ray.pipelines.check import (
    error_display_lines,
    run_check,
    write_stats,
)
from fastpasta_ray.stages.validate import CheckConfig
from fastpasta_ray.synth import SynthSpec, write_fixture

SPEC = SynthSpec(n_rows=400, n_parts=3, mean_n_tok=32)


def fixture(fixtures_dir, name, **kw):
    d = os.path.join(fixtures_dir, name)
    if not os.path.isdir(d):
        info = write_fixture(d, SynthSpec(n_rows=400, n_parts=3, mean_n_tok=32), **kw)
        return d, info
    return d, None


def test_clean_fixture_zero_violations(fixtures_dir):
    d, info = fixture(fixtures_dir, "clean")
    res = run_check(d, manifest_path=os.path.join(d, "_manifest.parquet"))
    assert res.violations.num_rows == 0, error_display_lines(res.violations)[:5]
    assert not res.any_errors
    assert res.report["total_rows"] == 1200
    assert res.report["total_parts"] == 3
    assert res.report["violations_by_code"] == {}
    # HLL estimate within 5% of exact distinct (1200 unique doc_ids)
    assert abs(res.report["doc_id_unique_estimate"] - 1200) / 1200 < 0.05
    # source histogram sums to row count
    assert sum(res.report["source_histogram"].values()) == 1200


def test_bad_len_exact_rows(fixtures_dir):
    d, info = fixture(fixtures_dir, "bad_len", defect="bad_len", defect_k=5)
    res = run_check(d, with_key_checks=False)
    v = res.violations
    assert v.num_rows == 5
    assert set(v["code"].to_pylist()) == {"E10"}
    got = sorted(
        (p, r) for p, r in zip(v["part"].to_pylist(), v["row_index"].to_pylist())
    )
    exp = sorted(("part-0000", r) for r in info["defect_rows"]["part-0000"])
    assert got == exp


def test_bad_vocab_exact_rows(fixtures_dir):
    d, info = fixture(fixtures_dir, "bad_vocab", defect="bad_vocab", defect_k=7)
    res = run_check(d, with_key_checks=False)
    v = res.violations
    assert v.num_rows == 7
    assert set(v["code"].to_pylist()) == {"E70"}
    got = sorted(v["row_index"].to_pylist())
    assert got == sorted(info["defect_rows"]["part-0000"])


def test_bad_null_source(fixtures_dir):
    d, info = fixture(
        fixtures_dir, "bad_null_source", defect="bad_null_source", defect_k=6
    )
    res = run_check(d, with_key_checks=False)
    v = res.violations
    assert v.num_rows == 6
    assert set(v["code"].to_pylist()) <= {"E40", "E41"}
    assert sorted(v["row_index"].to_pylist()) == sorted(
        info["defect_rows"]["part-0000"]
    )


def test_bad_order_running_check(fixtures_dir):
    d, info = fixture(fixtures_dir, "bad_order", defect="bad_order", defect_k=4)
    res = run_check(d, with_key_checks=False)
    v = res.violations
    order = v.filter(
        __import__("pyarrow.compute", fromlist=["equal"]).equal(v["code"], "E11")
    )
    assert order.num_rows == 4
    assert set(order["part"].to_pylist()) == {"part-0000"}
    assert sorted(order["row_index"].to_pylist()) == sorted(
        info["defect_rows"]["part-0000"]
    )


def test_bad_dup_doc_id_key_check(fixtures_dir):
    d, info = fixture(
        fixtures_dir, "bad_dup", defect="bad_dup_doc_id", defect_k=5
    )
    res = run_check(d, cfg=CheckConfig(running_checks=False))
    import pyarrow.compute as pc

    v = res.violations
    dups = v.filter(pc.equal(v["code"], "E80"))
    assert dups.num_rows == 5
    assert set(dups["part"].to_pylist()) == {"part-0000"}


def test_truncated_tail(fixtures_dir):
    d, info = fixture(fixtures_dir, "truncated", defect="truncated", defect_k=3)
    res = run_check(d, with_key_checks=False)
    v = res.violations
    assert set(v["code"].to_pylist()) == {"E100"}
    assert sorted(v["row_index"].to_pylist()) == [397, 398, 399]


def test_orphan_and_empty_docs(fixtures_dir, tmp_path):
    """bad_dup fixture has rows whose doc_id was overwritten → the original
    ids become manifest-only (E701 empty) and dup ids appear twice; also the
    manifest n_tok check fires where the copied row disagrees."""
    import pyarrow.compute as pc

    d, info = fixture(fixtures_dir, "bad_dup2", defect="bad_dup_doc_id", defect_k=4)
    res = run_check(
        d,
        cfg=CheckConfig(running_checks=False),
        manifest_path=os.path.join(d, "_manifest.parquet"),
    )
    v = res.violations
    empty = v.filter(pc.equal(v["code"], "E701"))
    assert empty.num_rows == 4  # overwritten ids no longer present
    assert set(empty["part"].to_pylist()) == {"__manifest__"}
    dups = v.filter(pc.equal(v["code"], "E80"))
    assert dups.num_rows == 4


def test_drift_gate(fixtures_dir):
    """bad_drift: one partition from a shifted distribution → that partition
    (and only it) fails the PSI/KS drift gate vs the clean profile."""
    from fastpasta_ray.checks.drift import build_profile

    d_clean, _ = fixture(fixtures_dir, "clean")
    clean = run_check(d_clean, with_key_checks=False)
    profile = build_profile(clean.stats_by_part)

    d, _ = fixture(fixtures_dir, "bad_drift", defect="bad_drift", defect_parts=(1,))
    res = run_check(d, with_key_checks=False, reference_profile=profile)
    import pyarrow.compute as pc

    drift = res.violations.filter(
        pc.is_in(res.violations["code"], value_set=__import__("pyarrow").array(["E9440", "E9441"]))
    )
    assert drift.num_rows > 0
    assert set(drift["part"].to_pylist()) == {"part-0001"}
    assert res.drift_metrics["part-0001"]["psi_n_tok"] > 0.2
    assert res.drift_metrics["part-0000"]["psi_n_tok"] < 0.05


def test_stats_snapshot_roundtrip(fixtures_dir, tmp_path):
    """write stats → re-read → compare_profiles == no mismatches; perturb →
    exact per-field mismatch messages (README.md:191-198 CI round-trip)."""
    import json

    from fastpasta_ray.checks.drift import build_profile, compare_profiles

    d, _ = fixture(fixtures_dir, "clean")
    r1 = run_check(d, with_key_checks=False)
    p1 = build_profile(r1.stats_by_part)
    path = str(tmp_path / "stats.json")
    with open(path, "w") as f:
        json.dump(p1, f)
    with open(path) as f:
        p2 = json.load(f)
    assert compare_profiles(p1, p2) == []
    p2["row_count"] += 1
    msgs = compare_profiles(p1, p2)
    assert msgs == [
        "[E9002] row_count mismatch: observed 1200 != reference 1201"
    ]


def test_error_code_filter_and_cap(fixtures_dir):
    """enabled_codes filter (err_printer.rs:52-90 analog) + per-part cap."""
    d, _ = fixture(fixtures_dir, "bad_len", defect="bad_len", defect_k=5)
    res = run_check(
        d, cfg=CheckConfig(enabled_codes=("E70",)), with_key_checks=False
    )
    assert res.violations.num_rows == 0  # E10s filtered out
    res2 = run_check(
        d, cfg=CheckConfig(max_errors_per_part=2), with_key_checks=False
    )
    assert res2.violations.num_rows == 2


def test_expected_row_count_custom_check(fixtures_dir):
    d, _ = fixture(fixtures_dir, "clean")
    res = run_check(
        d, cfg=CheckConfig(expected_row_count=999), with_key_checks=False
    )
    assert res.report["custom_check_messages"] == [
        "[E9001] row count 1200 != expected 999"
    ]
    assert res.report["any_errors"]


def test_determinism_same_fixture_same_result(fixtures_dir, tmp_path):
    d1 = str(tmp_path / "a")
    d2 = str(tmp_path / "b")
    write_fixture(d1, SynthSpec(n_rows=100, n_parts=2))
    write_fixture(d2, SynthSpec(n_rows=100, n_parts=2))
    import filecmp

    assert filecmp.cmp(
        os.path.join(d1, "part-0000.parquet"), os.path.join(d2, "part-0000.parquet")
    )


def test_small_input_empty_buckets(tmp_path):
    """A tiny input without a manifest through the key-check exchange
    (regression: ArrowInvalid 'Must pass at least one table' when a reduce
    got only empty shards)."""
    d = str(tmp_path / "tiny")
    write_fixture(d, SynthSpec(n_rows=30, n_parts=1), manifest=False)
    res = run_check(d)  # key checks on by default
    assert not res.any_errors
    assert res.report["total_rows"] == 30


def test_key_checks_partition_count_equivalent(tmp_path, monkeypatch):
    """bad_dup_doc_id with one manifest row dropped: all four key codes,
    the same at 1, 3 and 8 reduce tasks."""
    from tests.test_recovery_targeted import _dup_fixture, _layout_codes

    d, m = _dup_fixture(tmp_path)
    assert _layout_codes(d, m, monkeypatch) == {"E80", "E71", "E72", "E701"}


def test_cli_stats_snapshot_roundtrip(tmp_path):
    """check --output-stats s.json then check --input-stats s.json on the
    SAME data → zero drift violations (the reference's CI round-trip,
    README.md:191-198). Regression: the snapshot used to contain only the
    report, not the comparable profile."""
    from fastpasta_ray.pipelines.check import load_stats_profile, write_stats

    d = str(tmp_path / "fix")
    write_fixture(d, SynthSpec(n_rows=200, n_parts=2), manifest=False)
    r1 = run_check(d, with_key_checks=False)
    path = str(tmp_path / "s.json")
    write_stats(r1, path)
    profile = load_stats_profile(path)
    r2 = run_check(d, with_key_checks=False, reference_profile=profile)
    assert not r2.any_errors
    assert all(m["psi_n_tok"] < 0.01 for m in r2.drift_metrics.values())


def test_error_code_prefix_filter(fixtures_dir):
    """Prefix code filter (err_printer.rs:52-90): 'E1' enables E10/E1x."""
    d, _ = fixture(fixtures_dir, "bad_len", defect="bad_len", defect_k=5)
    res = run_check(d, cfg=CheckConfig(enabled_codes=("E1",)), with_key_checks=False)
    assert res.violations.num_rows == 5
    assert set(res.violations["code"].to_pylist()) == {"E10"}
    res2 = run_check(d, cfg=CheckConfig(enabled_codes=("E7",)), with_key_checks=False)
    assert res2.violations.num_rows == 0


def test_global_error_budget_early_stop(tmp_path):
    """Global max-errors stop (controller.rs:229-246 analog): a run over
    many corrupt partitions stops early — strictly fewer violations than
    the uncapped run, report flags stopped_early."""
    d = str(tmp_path / "many_bad")
    write_fixture(
        d,
        SynthSpec(n_rows=1200, n_parts=12, mean_n_tok=16),
        defect="bad_vocab",
        defect_k=10,
        defect_parts=tuple(range(12)),
    )
    full = run_check(d, with_key_checks=False)
    assert full.violations.num_rows == 120
    capped = run_check(
        d, cfg=CheckConfig(max_errors_global=20), with_key_checks=False
    )
    assert capped.report["stopped_early"] is True
    assert capped.violations.num_rows < full.violations.num_rows
    # uncapped run on a clean budget is not flagged
    loose = run_check(
        d, cfg=CheckConfig(max_errors_global=10_000), with_key_checks=False
    )
    assert loose.report["stopped_early"] is False
    assert loose.violations.num_rows == 120


def test_stats_snapshot_toml_roundtrip(fixtures_dir, tmp_path):
    """TOML snapshot parity (stats_collector.rs:161-175 writes JSON *and*
    TOML): write .toml -> tomllib re-read -> same profile fields."""
    from fastpasta_ray.checks.drift import compare_profiles
    from fastpasta_ray.pipelines.check import load_stats_profile

    d, _ = fixture(fixtures_dir, "clean")
    r1 = run_check(d, with_key_checks=False)
    path = str(tmp_path / "stats.toml")
    write_stats(r1, path)
    p2 = load_stats_profile(path)
    assert compare_profiles(r1.profile, p2) == []
    jpath = str(tmp_path / "stats.json")
    write_stats(r1, jpath)
    assert compare_profiles(load_stats_profile(jpath), p2) == []


def test_scalar_only_mode(fixtures_dir):
    """read_payload=False (M7 skip_payload / RDH-only analog): token checks
    skipped, scalar checks + running checks + key checks still run."""
    d, info = fixture(fixtures_dir, "bad_vocab", defect="bad_vocab", defect_k=7)
    res = run_check(d, cfg=CheckConfig(read_payload=False), with_key_checks=False)
    assert res.violations.num_rows == 0  # E70 needs the payload
    assert res.report["total_rows"] == 1200
    assert res.report["total_tokens"] == 0
    d2, _ = fixture(fixtures_dir, "bad_len", defect="bad_len", defect_k=5)
    res2 = run_check(d2, cfg=CheckConfig(read_payload=False), with_key_checks=False)
    assert res2.violations.num_rows == 0  # E10 needs the payload too
    # but doc_id/source/running checks still fire without the payload
    d3 = os.path.join(fixtures_dir, "bad_order_scalar")
    if not os.path.isdir(d3):
        write_fixture(d3, SynthSpec(n_rows=400, n_parts=3, mean_n_tok=32),
                      defect="bad_order", defect_k=4)
    res3 = run_check(d3, cfg=CheckConfig(read_payload=False), with_key_checks=False)
    assert res3.violations.num_rows > 0
    assert set(res3.violations["code"].to_pylist()) == {"E11"}


def test_expected_index_stride_period_check(fixtures_dir):
    """R4 exact analog (tdh.rs:60-206 trigger period): stride=1 matches the
    clean fixture's consecutive doc indices; stride=2 flags every row after
    the first; a swapped-order fixture fires E44 instead of E11."""
    d, _ = fixture(fixtures_dir, "clean")
    ok = run_check(
        d, cfg=CheckConfig(expected_index_stride=1), with_key_checks=False
    )
    assert ok.violations.num_rows == 0
    bad = run_check(
        d, cfg=CheckConfig(expected_index_stride=2), with_key_checks=False
    )
    # every consecutive pair has stride 1 != 2: all rows but the first per
    # part. First mismatch per part = E440 (fresh), the rest = E441
    # (continuation) — the reference's first-vs-continuation split
    assert bad.violations.num_rows == 1200 - 3
    codes = bad.violations["code"].to_pylist()
    assert codes.count("E440") == 3
    assert codes.count("E441") == 1200 - 6
    d2 = os.path.join(fixtures_dir, "bad_order_period")
    if not os.path.isdir(d2):
        write_fixture(d2, SynthSpec(n_rows=400, n_parts=3, mean_n_tok=32),
                      defect="bad_order", defect_k=4)
    res = run_check(
        d2, cfg=CheckConfig(expected_index_stride=1), with_key_checks=False
    )
    assert res.violations.num_rows > 0
    # every emitted code is in the E44x family (prefix semantics)
    assert all(c.startswith("E44") for c in res.violations["code"].to_pylist())


def test_composite_defect_taxonomy(tmp_path):
    """One run over a corpus carrying SIX defect families at once — the
    full error-code taxonomy fires in a single pass and nothing masks
    anything else (integration analog of running every golden corpus file
    through one `check all`)."""
    import pyarrow.parquet as pq

    from fastpasta_ray import synth as SY

    d = str(tmp_path / "composite")
    os.makedirs(d)
    spec = SynthSpec(n_rows=300, n_parts=1, mean_n_tok=24)
    rng = np.random.default_rng(11)
    tables = []
    expected_codes = set()
    injectors = [
        ("bad_len", SY.inject_bad_len, {"E10"}),
        ("bad_vocab", SY.inject_bad_vocab, {"E70"}),
        ("bad_null_source", SY.inject_bad_null_source, {"E40"}),
        ("bad_dup_doc_id", SY.inject_bad_dup_doc_id, {"E80"}),
        ("bad_order", SY.inject_bad_order, {"E11"}),
        ("truncated", SY.inject_truncated, {"E100", "E10"}),
    ]
    for i, (name, fn, codes) in enumerate(injectors):
        t = SY.gen_partition(spec, i)
        t, _rows = fn(t, rng, 3)
        pq.write_table(t, os.path.join(d, f"{SY.part_name(i)}.parquet"))
        expected_codes |= codes
    res = run_check(d, with_key_checks=True)
    got_codes = set(res.violations["code"].to_pylist())
    # every expected family fires; E13 may ride along with null-doc defects
    assert expected_codes <= got_codes, (expected_codes - got_codes,
                                         sorted(got_codes))
    # per-partition isolation: bad_len's partition has no E70 etc.
    v = res.violations.to_pandas()
    assert set(v[v.part == "part-0001"].code) <= {"E70"}
    assert set(v[v.part == "part-0000"].code) <= {"E10"}
    assert res.report["stopped_early"] is not True if "stopped_early" in res.report else True


def test_key_check_violations_do_not_flip_stopped_early(tmp_path):
    """Review r3: a clean pass 1 followed by key-check violations counts
    them in global_error_count but must NOT claim stopped_early (no
    partition was skipped)."""
    d = str(tmp_path / "dupfix")
    write_fixture(d, SynthSpec(n_rows=300, n_parts=2), defect="bad_dup_doc_id", defect_k=8)
    res = run_check(
        d, cfg=CheckConfig(max_errors_global=3, running_checks=False)
    )
    assert res.violations.num_rows > 3          # dups found by the exchange
    assert set(res.violations["code"].to_pylist()) == {"E80"}
    assert res.report["stopped_early"] is False  # pass 1 never stopped
    assert res.report["global_error_count"] == res.violations.num_rows
    # and enabled_codes filters key-check codes too (review r3)
    res2 = run_check(
        d, cfg=CheckConfig(enabled_codes=("E7",), running_checks=False)
    )
    assert res2.violations.num_rows == 0


def test_fixture_storage_layout(tmp_path):
    """SCALE.md round-4 layout experiment (corrected): the decode lever is
    SMALL ROW GROUPS (10k decodes 1.46x faster than the 1M-row default);
    plain-encoding the token column buys ~5% single-thread but doubles the
    memory-bus bytes and loses ~40% at 32-way concurrency. Pin the default
    layout (dict+snappy, rg<=10k) and the experiment knob."""
    import pyarrow.parquet as pq

    d = str(tmp_path / "layoutfix")
    write_fixture(d, SynthSpec(n_rows=30_000, n_parts=1))
    meta = pq.ParquetFile(os.path.join(d, "part-0000.parquet")).metadata
    rg0 = meta.row_group(0)
    assert rg0.num_rows <= 10_000
    enc = {
        rg0.column(i).path_in_schema: set(rg0.column(i).encodings)
        for i in range(rg0.num_columns)
    }
    assert "RLE_DICTIONARY" in enc["tokens.list.element"]
    assert rg0.column(0).compression == "SNAPPY"
    # the experiment knob restricts dictionary encoding to named columns
    d2 = str(tmp_path / "layoutplain")
    write_fixture(d2, SynthSpec(n_rows=300, n_parts=1), dictionary_columns=("source",))
    meta2 = pq.ParquetFile(os.path.join(d2, "part-0000.parquet")).metadata
    enc2 = {
        meta2.row_group(0).column(i).path_in_schema: set(
            meta2.row_group(0).column(i).encodings
        )
        for i in range(meta2.row_group(0).num_columns)
    }
    assert "RLE_DICTIONARY" not in enc2["tokens.list.element"]
    assert "RLE_DICTIONARY" in enc2["source"]


def test_exchange_no_schema_flip_on_empty_blocks(monkeypatch):
    """Regression (VERDICT r4 #5): ``hash_exchange`` over an input that
    carries many typed-EMPTY blocks (the jaccard-verify set-scan shape)
    returns every row and emits no schema-less block, with 8 reduce tasks
    over 4 keys so empty outputs flow too. The sort-based
    groupby it replaced reliably produced 'RefBundle with a different
    schema' warnings from ray.data's streaming executor on this shape."""
    import logging

    import numpy as np
    import pyarrow as pa
    import ray

    import fastpasta_ray.exchange as X

    monkeypatch.setattr(X, "_reduce_task_count", lambda cpus, rows: 8)
    records: list[str] = []

    class _H(logging.Handler):
        def emit(self, r):  # pragma: no cover - trivial
            records.append(r.getMessage())

    h = _H(level=logging.WARNING)
    logging.getLogger("ray.data").addHandler(h)
    try:
        SCH = pa.schema([("key", pa.int64()), ("v", pa.int64())])
        tables = [pa.table({"key": np.arange(32) % 4, "v": np.arange(32)}, schema=SCH)]
        tables += [SCH.empty_table() for _ in range(40)]
        side = X.Blocks([ray.put(t) for t in tables], SCH, 32)
        out = X.Blocks(X.hash_exchange(side, "key", lambda g: g), SCH, 32)
        got = X.collect(out)
        assert sorted(got["v"].to_pylist()) == list(range(32))
        assert got.schema == SCH
        flips = [m for m in records if "different schema" in m]
        assert flips == [], flips
    finally:
        logging.getLogger("ray.data").removeHandler(h)
