"""Resume semantics: killed run → restart reprocesses only uncommitted
partitions; final outputs identical to an uninterrupted run (FIXTURES.md
test protocol #5). The reference has no checkpointing — this is north-rule
new design (state/checkpoint.py)."""

import json
import os

from fastpasta_ray.pipelines.check import run_check
from fastpasta_ray.state.checkpoint import CheckpointStore
from fastpasta_ray.synth import SynthSpec, write_fixture


def test_commit_and_resume(tmp_path):
    d = str(tmp_path / "fix")
    out = str(tmp_path / "out")
    write_fixture(d, SynthSpec(n_rows=200, n_parts=4), defect="bad_len", defect_k=3)

    # full run with checkpointing
    r1 = run_check(d, with_key_checks=False, out_dir=out)
    store = CheckpointStore(out)
    committed = store.committed()
    assert sorted(committed) == [f"part-{i:04d}" for i in range(4)]
    rec = committed["part-0000"]
    assert rec["status"] == "committed"
    assert rec["row_count"] == 200
    assert rec["violation_count"] == 3
    assert rec["input_path"].endswith("part-0000.parquet")

    # simulate a crash that lost partitions 2,3: delete their commit records
    for p in ("part-0002", "part-0003"):
        os.remove(os.path.join(out, "commits", f"{p}.json"))

    # resumed run: only 2,3 reprocess; result identical to uninterrupted run
    r2 = run_check(d, with_key_checks=False, out_dir=out, resume=True)
    assert r2.report == r1.report
    assert r2.violations.num_rows == r1.violations.num_rows
    assert (
        r2.violations.sort_by([("part", "ascending"), ("row_index", "ascending")])
        .equals(
            r1.violations.sort_by([("part", "ascending"), ("row_index", "ascending")])
        )
    )


def test_resume_skips_committed(tmp_path, monkeypatch):
    """A resumed run must not re-read committed partitions at all."""
    d = str(tmp_path / "fix")
    out = str(tmp_path / "out")
    write_fixture(d, SynthSpec(n_rows=100, n_parts=3))
    run_check(d, with_key_checks=False, out_dir=out)

    # poison one committed file on disk — resume must not touch it
    poisoned = os.path.join(d, "part-0001.parquet")
    with open(poisoned, "wb") as f:
        f.write(b"not a parquet file")
    r = run_check(d, with_key_checks=False, out_dir=out, resume=True)
    assert r.report["total_rows"] == 300
    assert not r.any_errors


def test_resume_restores_drift_verdicts(tmp_path):
    """Drift verdicts are computed in-task and committed with the partition;
    a resumed run restores them without recomputing the skipped parts."""
    from fastpasta_ray.checks.drift import build_profile

    d = str(tmp_path / "fix")
    out = str(tmp_path / "out")
    write_fixture(d, SynthSpec(n_rows=150, n_parts=3))
    base = run_check(d, with_key_checks=False)
    profile = build_profile(base.stats_by_part)

    r1 = run_check(d, with_key_checks=False, out_dir=out, reference_profile=profile)
    assert set(r1.drift_metrics) == {f"part-{i:04d}" for i in range(3)}
    os.remove(os.path.join(out, "commits", "part-0002.json"))
    r2 = run_check(
        d, with_key_checks=False, out_dir=out, resume=True, reference_profile=profile
    )
    assert r2.drift_metrics == r1.drift_metrics
    assert r2.report == r1.report


def test_key_check_violations_not_committed(tmp_path):
    """Key-check codes (E80/E71/E72/E701) are global and recomputed each
    run — they must NOT be stored in partition commits, or a resumed run
    would double-count them."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    d = str(tmp_path / "fix")
    out = str(tmp_path / "out")
    write_fixture(d, SynthSpec(n_rows=200, n_parts=3), defect="bad_dup_doc_id", defect_k=3)
    r1 = run_check(d, out_dir=out, manifest_path=os.path.join(d, "_manifest.parquet"))
    dups1 = r1.violations.filter(pc.equal(r1.violations["code"], "E80")).num_rows
    assert dups1 == 3
    # stored per-partition violations contain no key-check codes
    for f in os.listdir(os.path.join(out, "violations")):
        t = pq.read_table(os.path.join(out, "violations", f))
        assert not set(t["code"].to_pylist()) & {"E80", "E71", "E72", "E701"}
    # full resume (all parts committed): key-check violations appear exactly once
    r2 = run_check(
        d, out_dir=out, resume=True, manifest_path=os.path.join(d, "_manifest.parquet")
    )
    dups2 = r2.violations.filter(pc.equal(r2.violations["code"], "E80")).num_rows
    assert dups2 == 3
    assert r2.violations.num_rows == r1.violations.num_rows


def test_early_stop_then_resume_completes(tmp_path):
    """Global budget stops a run mid-way; the skipped partitions were NOT
    committed, so a resume WITHOUT the budget finishes them — the
    checkpoint/resume contract composed with the early-stop divergence."""
    from fastpasta_ray.pipelines.check import run_check
    from fastpasta_ray.stages.validate import CheckConfig
    from fastpasta_ray.synth import SynthSpec, write_fixture

    d = str(tmp_path / "fix")
    ck = str(tmp_path / "ck")
    write_fixture(
        d,
        SynthSpec(n_rows=600, n_parts=12, mean_n_tok=16),
        defect="bad_vocab",
        defect_k=5,
        defect_parts=tuple(range(12)),
    )
    stopped = run_check(
        d, cfg=CheckConfig(max_errors_global=10), with_key_checks=False, out_dir=ck
    )
    assert stopped.report["stopped_early"] is True
    assert stopped.violations.num_rows < 60
    resumed = run_check(d, with_key_checks=False, out_dir=ck, resume=True)
    assert resumed.report.get("stopped_early") is not True  # key absent or False
    assert resumed.violations.num_rows == 60
    assert resumed.report["total_rows"] == 7200


def test_resume_with_key_checks_matches_uninterrupted_run(tmp_path, monkeypatch):
    """Key checks on: a resumed run's violations and report, all four key
    codes included, equal an uninterrupted run's. Pass 1 emits the exchange
    rows of the partitions it validates, so only the committed partitions
    are read again for the exchange (one ``_map_seq_shard`` launch per
    group of them), and a fresh run launches none."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastpasta_ray.checks import key_checks as K
    from tests.test_one_read import LaunchSpy

    d = str(tmp_path / "fix")
    out = str(tmp_path / "out")
    write_fixture(d, SynthSpec(n_rows=300, n_parts=4), defect="bad_dup_doc_id", defect_k=4,
                  defect_parts=(0, 2))
    m = os.path.join(d, "_manifest.parquet")
    t = pq.read_table(m)[1:]  # E71: the first row's doc_id leaves the manifest
    exp = t["expected_n_tok"].to_numpy(zero_copy_only=False).copy()
    exp[400] += 1  # E72
    t = t.set_column(2, "expected_n_tok", pa.array(exp, type=t["expected_n_tok"].type))
    ghost = pa.Table.from_pydict(  # E701
        {"doc_id": ["web/0000/99999999"], "source": ["web"], "expected_n_tok": [5]},
        schema=t.schema,
    )
    pq.write_table(pa.concat_tables([t, ghost]), m)

    spy = LaunchSpy(K._map_seq_shard)
    monkeypatch.setattr(K, "_map_seq_shard", spy)
    clean = run_check(d, manifest_path=m)
    r1 = run_check(d, manifest_path=m, out_dir=out)
    assert spy.paths == []
    assert {"E80", "E71", "E72", "E701"} <= set(clean.report["violations_by_code"])
    assert r1.violations.equals(clean.violations) and r1.report == clean.report

    for p in ("part-0001", "part-0002"):
        os.remove(os.path.join(out, "commits", f"{p}.json"))
    r2 = run_check(d, manifest_path=m, out_dir=out, resume=True)
    assert sorted(spy.paths) == ["part-0000.parquet", "part-0003.parquet"]
    assert r2.violations.equals(clean.violations)
    assert r2.report == clean.report


def test_non_default_vocab_fresh_run_and_resume(tmp_path):
    """A run at a vocab other than the default folds its profile at that
    vocab: the fresh run and a resume that loads committed stats back both
    count the distinct in-range token ids (ids past the vocab are E70s,
    not vocab coverage)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from fastpasta_ray.sources.parquet import sequence_files
    from fastpasta_ray.stages.validate import CheckConfig

    d = str(tmp_path / "fix")
    out = str(tmp_path / "out")
    write_fixture(d, SynthSpec(n_rows=150, n_parts=3))
    flat = pc.list_flatten(
        pq.read_table(sequence_files(d), columns=["tokens"])["tokens"]
    )
    in_range = pc.and_(pc.greater_equal(flat, 0), pc.less(flat, 1000))
    seen = pc.count_distinct(flat.filter(in_range)).as_py()
    assert 0 < seen < pc.count_distinct(flat).as_py()

    cfg = CheckConfig(vocab=1000)
    r1 = run_check(d, cfg, with_key_checks=False, out_dir=out)
    assert r1.report["vocab_seen_count"] == seen
    os.remove(os.path.join(out, "commits", "part-0001.json"))
    r2 = run_check(d, cfg, with_key_checks=False, out_dir=out, resume=True)
    assert r2.report["vocab_seen_count"] == seen
    assert r2.report == r1.report
