"""Key-check recovery must be TARGETED (VERDICT r2 #3): with a
multi-row-group manifest and rare violations, recovery reads only the row
groups containing affected rows — never the whole manifest — and the
violations are unchanged."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fastpasta_ray.checks import key_checks as K
from fastpasta_ray.synth import SynthSpec, write_fixture


@pytest.fixture()
def fixture_many_rg(tmp_path):
    """Fixture + a manifest rewritten into 40 row groups, with ONE extra
    manifest-only doc (→ E701) and one n_tok expectation bumped (→ E72)."""
    d = str(tmp_path / "fix")
    write_fixture(d, SynthSpec(n_rows=2000, n_parts=2, mean_n_tok=16))
    m = os.path.join(d, "_manifest.parquet")
    t = pq.read_table(m)
    # corrupt one expectation (E72 on the matching sequence row)
    exp = t["expected_n_tok"].to_numpy(zero_copy_only=False).copy()
    exp[137] += 1
    t = t.set_column(
        t.schema.get_field_index("expected_n_tok"),
        "expected_n_tok",
        pa.array(exp, type=t["expected_n_tok"].type),
    )
    # one manifest-only doc (E701)
    ghost = pa.table(
        {
            "doc_id": pa.array(["web/0000/99999999"]),
            "source": pa.array(["web"]),
            "expected_n_tok": pa.array([5], type=t["expected_n_tok"].type),
        },
        schema=t.schema,
    )
    t = pa.concat_tables([t, ghost])
    pq.write_table(t, m, row_group_size=max(1, t.num_rows // 40))
    assert pq.ParquetFile(m).metadata.num_row_groups >= 35
    return d, m


def test_recovery_reads_few_manifest_row_groups(fixture_many_rg, monkeypatch):
    d, m = fixture_many_rg
    from fastpasta_ray.sources.parquet import sequence_files

    files = sequence_files(d)

    # count row-group reads of the MANIFEST during the driver-side
    # recovery step only (the exchange maps legitimately scan everything)
    counts = {"manifest_rg_reads": 0}
    real_read_rows = K._read_rows_by_index

    def counting_read_rows(path, row_idx, column):
        if path == m:
            pf = pq.ParquetFile(path)
            md = pf.metadata
            starts = np.zeros(md.num_row_groups + 1, dtype=np.int64)
            for i in range(md.num_row_groups):
                starts[i + 1] = starts[i] + md.row_group(i).num_rows
            rg_of = np.searchsorted(starts, row_idx, side="right") - 1
            counts["manifest_rg_reads"] += len(np.unique(rg_of))
        return real_read_rows(path, row_idx, column)

    monkeypatch.setattr(K, "_read_rows_by_index", counting_read_rows)

    v = K.key_checks(files, m)
    codes = sorted(v["code"].to_pylist())
    assert codes == ["E701", "E72"]
    # the ghost doc and the bad expectation live in at most 3 row groups;
    # a whole-manifest read would have been 40
    n_rg = pq.ParquetFile(m).metadata.num_row_groups
    assert counts["manifest_rg_reads"] <= max(3, n_rg // 10)
    # and the E72 message names both values
    e72 = [x for c, x in zip(v["code"].to_pylist(), v["message"].to_pylist()) if c == "E72"]
    assert "manifest expected" in e72[0]


def _cut_manifest_fixture(tmp_path, name, manifest_rows: slice, **defect):
    """A fixture whose manifest keeps only ``manifest_rows`` (E71 for the
    rest)."""
    d = str(tmp_path / name)
    write_fixture(d, SynthSpec(n_rows=300, n_parts=2), **defect)
    m = os.path.join(d, "_manifest.parquet")
    pq.write_table(pq.read_table(m)[manifest_rows], m)
    return d, m


def _dup_fixture(tmp_path):
    """bad_dup_doc_id fixture (E80, plus E72/E701 where a copied id changes
    a row's expectation / orphans the overwritten id) with the first
    manifest row dropped (E71)."""
    return _cut_manifest_fixture(
        tmp_path, "dup", slice(1, None), defect="bad_dup_doc_id", defect_k=4
    )


def _naive_violations(files, m, filter_sources=None):
    """(part, row_index, code) of all four key checks, computed per key in
    plain Python from the files — NULL and empty doc_ids take part in none,
    and with ``filter_sources`` neither do rows of other sources."""
    def scoped(t):
        return (filter_sources is None or s in filter_sources for s in t["source"].to_pylist())

    seq = []
    for i, f in enumerate(files):
        t = pq.read_table(f, columns=["doc_id", "n_tok", "source"])
        rows = zip(t["doc_id"].to_pylist(), t["n_tok"].to_pylist(), scoped(t))
        for r, (did, n, keep) in enumerate(rows):
            if did and keep:
                seq.append((i, r, did, n))
    man = pq.read_table(m, columns=["doc_id", "expected_n_tok", "source"])
    exp: dict[str, int] = {}
    for did, n, keep in zip(man["doc_id"].to_pylist(), man["expected_n_tok"].to_pylist(),
                            scoped(man)):
        if did and keep:
            exp[did] = min(n, exp.get(did, n))
    out, seen = set(), set()
    for i, r, did, n in sorted(seq):
        part = os.path.splitext(os.path.basename(files[i]))[0]
        if did in seen:
            out.add((part, r, "E80"))
        seen.add(did)
        if did not in exp:
            out.add((part, r, "E71"))
        elif n != exp[did]:
            out.add((part, r, "E72"))
    out |= {(K.MANIFEST_PART, -1, "E701") for did in exp if did not in seen}
    return out


def _rows(v):
    return sorted(zip(v["part"].to_pylist(), v["row_index"].to_pylist(),
                      v["code"].to_pylist(), v["doc_id"].to_pylist(),
                      v["message"].to_pylist()))


def _layout_codes(d, m, monkeypatch, filter_sources=None):
    """Run the key checks at 1, 3 and 8 reduce tasks, each at 1, 3 and 8
    CPUs (so the manifest maps as at most 1, 3 and 8 row-group ranges);
    assert byte-identical violations per reduce task count, the same rows
    at every count, equal to a per-key reference; return the codes seen.
    (At the suite's 4 CPUs the sizing rule picks 1, so this is what
    exercises the multi-return path.)"""
    from fastpasta_ray.sources.parquet import groups as split
    from fastpasta_ray.sources.parquet import sequence_files
    from tests.test_one_read import LaunchSpy

    files = sequence_files(d)
    got, map_manifest = {}, K._map_manifest_shard
    for n in (1, 3, 8):
        monkeypatch.setattr(K, "_reduce_task_count", lambda cpus, est, n=n: n)
        for cpus in (1, 3, 8):
            monkeypatch.setattr(K, "cluster_cpus", lambda cpus=cpus: cpus)
            units = LaunchSpy(map_manifest)
            monkeypatch.setattr(K, "_map_manifest_shard", units)
            v = K.key_checks(files, m, filter_sources=filter_sources)
            assert 1 <= len(units.paths) <= cpus
            assert v.equals(got.setdefault(n, v))
    assert _rows(got[1]) == _rows(got[3]) == _rows(got[8])
    assert {r[:3] for r in _rows(got[1])} == _naive_violations(files, m, filter_sources)
    return {r[2] for r in _rows(got[1])}


def _run_check_layouts(d, m, monkeypatch):
    """run_check at 1, 3 and 8 reduce tasks, each with one pass-1 task, two
    and one per file: the violations are byte-identical and the reports
    equal, the key rows equal the per-key reference, and no run starts a
    Ray Data execution or a second read (``_map_seq_shard``) of any
    partition.
    Returns the codes seen."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from fastpasta_ray.pipelines import check
    from fastpasta_ray.sources.parquet import groups as split
    from fastpasta_ray.sources.parquet import sequence_files
    from tests.test_one_read import LaunchSpy

    files = sequence_files(d)
    executions, real_execute = [0], StreamingExecutor.execute

    def counting_execute(self, *a, **kw):
        executions[0] += 1
        return real_execute(self, *a, **kw)

    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    reads = LaunchSpy(K._map_seq_shard)
    monkeypatch.setattr(K, "_map_seq_shard", reads)
    got = {}
    for n in (1, 3, 8):
        monkeypatch.setattr(K, "_reduce_task_count", lambda cpus, est, n=n: n)
        for g in (1, 2, len(files)):
            monkeypatch.setattr(check, "groups", lambda items, k, g=g: split(items, g))
            res = check.run_check(d, manifest_path=m)
            got[n, g] = (res.violations, res.report)
    v0, r0 = got[1, 1]
    for v, r in got.values():
        # neither the pass-1 grouping nor the reduce task count changes a
        # byte: doc_id breaks the position ties of the E701 rows
        assert v.equals(v0) and r == r0
    key = {r[:3] for r in _rows(v0) if r[2] in {"E80", "E71", "E72", "E701"}}
    assert key == _naive_violations(files, m)
    assert executions[0] == 0 and reads.paths == []
    return {r[2] for r in key}


def test_violations_independent_of_partition_count(fixture_many_rg, tmp_path, monkeypatch):
    """Manifest defects (E72, E701), and a 3-row manifest whose
    manifest-less partitions still give E71 orphans; through run_check also
    duplicates (E80) over five partitions."""
    tiny_manifest = _cut_manifest_fixture(tmp_path, "tiny_manifest", slice(0, 3))
    assert pq.ParquetFile(tiny_manifest[1]).metadata.num_row_groups == 1
    codes = set()
    for d, m in (fixture_many_rg, tiny_manifest):
        codes |= _layout_codes(d, m, monkeypatch)
    assert codes == {"E71", "E72", "E701"}
    assert _layout_codes(*fixture_many_rg, monkeypatch, filter_sources=("web", "code"))
    d = str(tmp_path / "five")
    write_fixture(d, SynthSpec(n_rows=200, n_parts=5), defect="bad_dup_doc_id", defect_k=3,
                  defect_parts=(1, 4))
    m = os.path.join(d, "_manifest.parquet")
    pq.write_table(pq.read_table(m)[1:], m)
    run_codes = set()
    for d, m in (fixture_many_rg, tiny_manifest, (d, m)):
        run_codes |= _run_check_layouts(d, m, monkeypatch)
    assert run_codes == {"E80", "E71", "E72", "E701"}


def test_null_and_empty_manifest_doc_ids_are_exempt(tmp_path):
    """NULL and empty manifest doc_ids take part in no key check, whatever
    their order in the manifest: no E701 for ['', None, None] nor for
    [None, None, '']."""
    from fastpasta_ray.sources.parquet import sequence_files

    results = []
    for tail in (["", None, None], [None, None, ""]):
        d = str(tmp_path / f"null{len(results)}")
        write_fixture(d, SynthSpec(n_rows=200, n_parts=2))
        m = os.path.join(d, "_manifest.parquet")
        t = pq.read_table(m)
        extra = {"doc_id": tail, "source": ["web"] * 3, "expected_n_tok": [5] * 3}
        pq.write_table(pa.concat_tables([t, pa.Table.from_pydict(extra, schema=t.schema)]), m)
        results.append(_rows(K.key_checks(sequence_files(d), m)))
    assert results[0] == results[1] == []


def test_max_candidates_cut_keeps_whole_hash_runs(tmp_path, monkeypatch, caplog):
    """The candidate cap cuts at hash-run boundaries: every kept E80/E72
    candidate keeps its reference rider, the kept violations are a subset
    of the uncapped ones, and the cut is logged with its counts."""
    import logging

    from fastpasta_ray.sources.parquet import sequence_files

    d, m = _dup_fixture(tmp_path)
    files = sequence_files(d)
    full = _rows(K.key_checks(files, m))
    seen = []
    real = K._recover_violations
    monkeypatch.setattr(K, "_recover_violations", lambda c, *a: seen.append(c) or real(c, *a))
    cap = 5
    with caplog.at_level(logging.WARNING, logger=K.__name__):
        capped = _rows(K.key_checks(files, m, max_candidates=cap))
    kept = seen[0]
    assert 0 < kept.num_rows <= cap
    assert capped and set(capped) <= set(full)
    pairs = set(zip(kept["h"].to_pylist(), kept["cand"].to_pylist()))
    rider_of = {K._C_DUP: K._C_DUPREF, K._C_NTOK: K._C_MANREF}
    assert all((x, rider_of[c]) in pairs for x, c in pairs if c in rider_of)
    assert "kept" in caplog.text and "dropped" in caplog.text
    # one run longer than the cap: truncated, but its rider comes first
    run = pa.Table.from_pydict(
        {"h": [7] * 4, "loc": [3, 2, 1, 0], "n_tok": [1] * 4, "exp_n_tok": [-1] * 4,
         "cand": [K._C_DUP] * 3 + [K._C_DUPREF]},
        schema=K.CANDIDATE_SCHEMA,
    )
    assert K._cap_candidates(run, 2)["cand"].to_pylist() == [K._C_DUPREF, K._C_DUP]


def test_unreadable_partition_skipped_by_key_checks(tmp_path):
    """A truncated partition file next to good ones with planted E80/E71:
    pass 1 reports one E14 for it, pass 2 leaves it out (it used to open
    it and raise ArrowInvalid), and the planted key violations are the
    same as without the bad file."""
    from fastpasta_ray.pipelines.check import run_check
    from fastpasta_ray.sources.parquet import sequence_files

    d, m = _dup_fixture(tmp_path)
    good = sequence_files(d)
    without = _rows(run_check(d, manifest_path=m).violations)
    with open(good[0], "rb") as f:
        raw = f.read()
    # a copy of a good file cut in half: had pass 2 read it, its doc_ids
    # would all come back as E80 duplicates
    with open(os.path.join(d, "part-0002.parquet"), "wb") as f:
        f.write(raw[: len(raw) // 2])
    v = run_check(d, manifest_path=m).violations
    e14 = [r for r in _rows(v) if r[2] == "E14"]
    assert [r[0] for r in e14] == ["part-0002"]
    assert "unreadable parquet file" in e14[0][4]
    assert sorted(set(_rows(v)) - set(e14)) == without
    key = {r[:3] for r in without if r[2] in {"E80", "E71", "E72", "E701"}}
    assert key == _naive_violations(good, m)
    assert {"E80", "E71"} <= {r[2] for r in key}
