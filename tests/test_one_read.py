"""One read per partition: pass 1's tasks emit the key-check exchange's
sequence-side shards from the batches they already decoded. These tests
pin that those shards are the rows the standalone map read would tag, that
partitions pass 1 does not reach are still key-checked, and that the
``loc`` packing fails loudly instead of merging keys."""

import os
import sys

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fastpasta_ray import schema as S
from fastpasta_ray.checks import key_checks as K
from fastpasta_ray.pipelines.check import run_check
from fastpasta_ray.sources.parquet import read_footers, sequence_files
from fastpasta_ray.stages.validate import CheckConfig, ValidateFiles
from fastpasta_ray.synth import SynthSpec, write_fixture

KEY_CODES = {"E80", "E71", "E72", "E701"}


class LaunchSpy:
    """Stands in for ``key_checks._map_seq_shard``: records the files each
    ``.remote`` launch reads, then launches the real task."""

    def __init__(self, fn, paths=None):
        self.fn, self.paths = fn, [] if paths is None else paths

    def options(self, **kw):
        return LaunchSpy(self.fn.options(**kw), self.paths)

    def remote(self, paths, *args):
        self.paths.extend(os.path.basename(p) for p in paths)
        return self.fn.remote(paths, *args)


def _set_doc_ids(path: str, edits: dict) -> None:
    t = pq.read_table(path)
    ids = t["doc_id"].to_pylist()
    for row, value in edits.items():
        ids[row] = value
    i = t.schema.get_field_index("doc_id")
    pq.write_table(t.set_column(i, "doc_id", pa.array(ids, type=pa.string())), path)


def _sorted_rows(h, loc, ntok):
    order = np.lexsort((h, loc))
    return h[order], loc[order], ntok[order]


@pytest.mark.parametrize("filter_sources", [None, ("web", "code")])
def test_pass1_shards_equal_the_tagged_map_read(tmp_path, filter_sources):
    """For each partition, the rows of every shard pass 1 emits equal the
    rows ``_iter_tagged_seq`` tags for it (after sorting): same hash, same
    ``loc``, same n_tok, NULL and empty doc_ids left out, the source filter
    applied, and a zero-row file contributing nothing. Each shard holds
    exactly its ``h % n_parts`` rows."""
    d = str(tmp_path / "fix")
    write_fixture(d, SynthSpec(n_rows=300, n_parts=2), defect="bad_dup_doc_id", defect_k=4)
    files = sequence_files(d)
    _set_doc_ids(files[1], {3: None, 5: "", 9: None, 200: ""})
    empty = os.path.join(d, "part-0002.parquet")
    pq.write_table(S.SEQUENCES_SCHEMA.empty_table(), empty)
    files = sequence_files(d)
    cfg = CheckConfig(batch_rows=64, filter_sources=filter_sources)
    for part_idx, path in enumerate(files):
        want = list(K._iter_tagged_seq(path, part_idx, cfg.batch_rows, filter_sources))
        want = _sorted_rows(*(np.concatenate([w[i] for w in want] or [np.empty(0)])
                              for i in range(3)))
        for n_parts in (1, 3):
            out = ValidateFiles(cfg).validate_files([path], [part_idx], n_parts)
            shards = out[2:]
            assert len(shards) == n_parts
            for p, s in enumerate(shards):
                h = s["h"].to_numpy()
                assert (h % np.uint64(n_parts) == p).all()
            got = pa.concat_tables(shards)
            got = _sorted_rows(*(got[c].to_numpy() for c in ("h", "loc", "n_tok")))
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            assert (len(got[0]) == 0) == (path == empty)
    # the edited partition really dropped its NULL and empty doc_ids
    t = ValidateFiles(cfg).validate_files([files[1]], [1], 1)[2]
    rows = t["loc"].to_numpy() & ((1 << K.ROW_BITS) - 1)
    assert not {3, 5, 9, 200} & set(rows.tolist())
    # and the zero-row partition goes through a whole run
    res = run_check(d, cfg, manifest_path=os.path.join(d, "_manifest.parquet"))
    assert res.stats_by_part["part-0002"].row_count == 0


def test_loc_packing_limits_fail_loudly(tmp_path, monkeypatch):
    """A partition with 2^ROW_BITS rows or more, or a part index of
    2^(63 - ROW_BITS) or more, would merge the keys of different rows:
    run_check refuses before pass 1 starts."""
    d = str(tmp_path / "fix")
    write_fixture(d, SynthSpec(n_rows=10, n_parts=3))
    m = os.path.join(d, "_manifest.parquet")
    monkeypatch.setattr(K, "ROW_BITS", np.int64(3))  # 10 rows >= 2^3
    with pytest.raises(ValueError, match="10 rows"):
        run_check(d, manifest_path=m)
    # the limits belong to the exchange: without key checks the run goes on
    assert run_check(d, with_key_checks=False).report["total_rows"] == 30
    monkeypatch.setattr(K, "ROW_BITS", np.int64(62))  # 3 parts > 2^1
    with pytest.raises(ValueError, match="3 partitions"):
        run_check(d, manifest_path=m)
    monkeypatch.setattr(K, "ROW_BITS", np.int64(4))  # 10 rows, 3 parts: fit
    *footers, manifest = read_footers([*sequence_files(d), m])
    assert K.plan_exchange(footers, manifest) >= 1


def test_unreadable_manifest_raises(tmp_path):
    """An unreadable manifest fails the run on the driver, before any task
    starts, in ``run_check`` and in ``key_checks`` called on its own; a run
    without key checks never opens it."""
    d = str(tmp_path / "fix")
    write_fixture(d, SynthSpec(n_rows=10, n_parts=2))
    m = os.path.join(d, "_manifest.parquet")
    with open(m, "wb") as f:
        f.write(b"not parquet")
    with pytest.raises(pa.ArrowInvalid):
        run_check(d, manifest_path=m)
    with pytest.raises(pa.ArrowInvalid):
        K.key_checks(sequence_files(d), m)
    assert run_check(d, manifest_path=m, with_key_checks=False).report["total_rows"] == 20


def _budget_fixture(tmp_path):
    """12 partitions with 5 pass-1 violations each (E70), and key defects
    in the last partitions: a doc_id of part-0000 copied into part-0011
    (E80), and the manifest rows of part-0010 dropped (E71)."""
    d = str(tmp_path / "budget")
    write_fixture(d, SynthSpec(n_rows=300, n_parts=12, mean_n_tok=16), defect="bad_vocab",
                  defect_k=5, defect_parts=tuple(range(12)))
    files = sequence_files(d)
    first = pq.read_table(files[0], columns=["doc_id"])["doc_id"][0].as_py()
    _set_doc_ids(files[11], {7: first})
    m = os.path.join(d, "_manifest.parquet")
    t = pq.read_table(m)
    lost = set(pq.read_table(files[10], columns=["doc_id"])["doc_id"].to_pylist())
    pq.write_table(t.filter(pc.invert(pc.is_in(t["doc_id"], pa.array(sorted(lost))))), m)
    return d, m


def _key_rows(v):
    return sorted(r for r in zip(v["part"].to_pylist(), v["row_index"].to_pylist(),
                                 v["code"].to_pylist(), v["message"].to_pylist())
                  if r[2] in KEY_CODES)


def test_budget_skipped_partitions_are_still_key_checked(tmp_path, monkeypatch):
    """With a global budget small enough that pass 1 skips partitions, the
    key-check rows equal those of a run without a budget: the skipped
    partitions (and only they) get a ``_map_seq_shard`` read. stopped_early
    still says pass 1 stopped, and global_error_count still counts every
    violation the run reports, key checks included."""
    d, m = _budget_fixture(tmp_path)
    spy = LaunchSpy(K._map_seq_shard)
    monkeypatch.setattr(K, "_map_seq_shard", spy)
    full = run_check(d, manifest_path=m)
    assert spy.paths == []
    codes = {r[2] for r in _key_rows(full.violations)}
    assert {"E80", "E71"} <= codes
    res = run_check(d, CheckConfig(max_errors_global=10), manifest_path=m)
    assert res.report["stopped_early"] is True
    assert res.report["global_error_count"] == res.violations.num_rows
    skipped = {os.path.basename(f) for f in sequence_files(d)} - {
        f"{p}.parquet" for p in res.stats_by_part
    }
    assert skipped, "the budget should have skipped partitions"
    assert sorted(spy.paths) == sorted(skipped)
    assert _key_rows(res.violations) == _key_rows(full.violations)


def _e14_budget_fixture(tmp_path, bad_files: bool):
    """4 partitions with 25 E70 each, a doc_id of part-0000 copied into
    part-0003 (E80) and, with ``bad_files``, an unreadable ``part-0008``
    (a good file cut in half) and a ``doc_id``/``tokens``-only
    ``part-0009``: both sort after the partitions the budget lets pass 1
    validate."""
    d = str(tmp_path / ("bad" if bad_files else "good"))
    write_fixture(d, SynthSpec(n_rows=300, n_parts=4, mean_n_tok=16), defect="bad_vocab",
                  defect_k=25, defect_parts=(0, 1, 2, 3))
    files = sequence_files(d)
    first = pq.read_table(files[0], columns=["doc_id"])["doc_id"][0].as_py()
    _set_doc_ids(files[3], {7: first})
    if bad_files:
        with open(files[0], "rb") as f:
            raw = f.read()
        with open(os.path.join(d, "part-0008.parquet"), "wb") as f:
            f.write(raw[: len(raw) // 2])
        pq.write_table(pq.read_table(files[0], columns=["doc_id", "tokens"]),
                       os.path.join(d, "part-0009.parquet"))
    return d, os.path.join(d, "_manifest.parquet")


def test_budget_skipped_bad_partitions_get_e14(tmp_path, monkeypatch):
    """A wrong-schema and an unreadable partition that sort after the
    global budget's stop get their E14 from the driver's footer pass (the
    exchange used to open such a file and raise ArrowInvalid in
    ``_map_seq_shard``), stay out of the exchange, and count toward
    global_error_count; the key rows equal those of the same budget run
    without them."""
    from fastpasta_ray.pipelines import check

    # one pass-1 task walks the files in order, so the budget stops it at
    # part-0002 whatever the CPU count
    monkeypatch.setattr(check, "groups", lambda items, k: [items])
    cfg = CheckConfig(max_errors_global=50)
    runs = {}
    for bad in (False, True):
        d, m = _e14_budget_fixture(tmp_path, bad)
        spy = LaunchSpy(K._map_seq_shard)
        monkeypatch.setattr(K, "_map_seq_shard", spy)
        res = run_check(d, cfg, manifest_path=m)
        assert res.report["stopped_early"] is True
        assert res.report["global_error_count"] == res.violations.num_rows
        runs[bad] = res.violations, sorted(spy.paths)
    (good, good_reads), (bad, bad_reads) = runs[False], runs[True]
    e14 = bad.filter(pc.equal(bad["code"], S.E_SCHEMA))
    assert e14["part"].to_pylist() == ["part-0008", "part-0009"]
    assert "unreadable parquet file" in e14["message"][0].as_py()
    assert "missing columns ['n_tok', 'source']" in e14["message"][1].as_py()
    assert bad_reads == good_reads == ["part-0003.parquet"]
    assert {r[2] for r in _key_rows(good)} >= {"E80"}
    assert _key_rows(bad) == _key_rows(good)


def test_e14_counts_toward_the_global_budget(tmp_path):
    """Pass 1's E14 counts toward global_error_count like every other
    partition violation (it used to be reported but not counted)."""
    d = str(tmp_path / "fix")
    write_fixture(d, SynthSpec(n_rows=100, n_parts=3), defect="bad_vocab", defect_k=5)
    pq.write_table(pa.table({"doc_id": ["x"]}), os.path.join(d, "part-0003.parquet"))
    res = run_check(d, CheckConfig(max_errors_global=10_000),
                    manifest_path=os.path.join(d, "_manifest.parquet"))
    assert res.report["violations_by_code"]["E14"] == 1
    assert res.report["global_error_count"] == res.violations.num_rows


def _calls_by_function(path: str, match) -> set[str]:
    """Names of the functions of a module whose code (docstrings and
    comments aside) holds an AST node ``match`` accepts; "<module>" for
    module-level code."""
    import ast

    tree = ast.parse(open(path).read())
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner
            if match(child):
                found.add(owner)
            visit(child, name)

    visit(tree, "<module>")
    return found


def test_loc_codec_and_unit_reads_have_one_home():
    """Source guard: ``<< ROW_BITS``, ``>> ROW_BITS`` and ``MANIFEST_BASE +``
    appear only in the position codec (``_loc``/``_unloc``) and in
    ``plan_exchange``, anywhere in the package; in ``key_checks.py``,
    parquet row reads appear only in the keyed-row cut and in
    ``_read_rows_by_index``."""
    import ast
    import glob

    def codec_op(node):
        return isinstance(node, ast.BinOp) and (
            isinstance(node.op, (ast.LShift, ast.RShift))
            and "ROW_BITS" in ast.unparse(node.right)
            or isinstance(node.op, ast.Add) and ast.unparse(node.left).endswith("MANIFEST_BASE")
        )

    def row_read(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in {
            "read_row_groups", "read_row_group", "iter_batches", "iter_file_batches",
            "iter_unit_batches", "read_table",
        }

    pkg = os.path.dirname(os.path.dirname(K.__file__))
    for path in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True):
        owners = _calls_by_function(path, codec_op)
        allowed = {"_loc", "_unloc", "plan_exchange"} if path == K.__file__ else set()
        assert owners <= allowed, (path, owners)
    assert _calls_by_function(K.__file__, row_read) == {"_cut", "_read_rows_by_index"}


def test_footers_are_read_in_one_place():
    """Source guard: on the driver, only ``read_footers`` reads a parquet
    footer (``read_metadata``, ``read_schema``, ``ParquetFile``); inside
    tasks, only the readers of one file's unit do (``iter_unit_batches``,
    the scanner read of ``iter_file_batches`` and ``_read_rows_by_index``),
    and ``auto_batch_rows`` sizes batches from the footer its caller
    read."""
    import ast
    import glob

    def footer_read(node):
        return isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in {
            "read_metadata", "read_schema", "ParquetFile",
        }

    pkg = os.path.dirname(os.path.dirname(K.__file__))
    owners = set()
    for path in glob.glob(os.path.join(pkg, "**", "*.py"), recursive=True):
        owners |= _calls_by_function(path, footer_read)
    assert owners == {
        "read_footers", "iter_unit_batches", "iter_file_batches", "_read_rows_by_index",
    }


def test_scalar_read_is_sized_by_its_own_columns(tmp_path):
    """A 3,000-row file of 8,192-token rows: "auto" sizes a read of every
    column to fewer rows than the file holds, but the scalar read of
    pass 1 (doc_id, n_tok, source) from the bytes of those three columns,
    so the whole file arrives as one batch, across its row groups."""
    from fastpasta_ray.sources.parquet import auto_batch_rows, iter_file_batches

    rows, width, per_group = 3_000, 8_192, 100
    path = str(tmp_path / "part-0000.parquet")
    tokens = pa.ListArray.from_arrays(
        pa.array(np.arange(per_group + 1, dtype=np.int32) * width),
        pa.array(np.arange(per_group * width, dtype=np.int32) % 50_000),
    )
    # plain-encoded tokens: 32 KiB per row before compression
    with pq.ParquetWriter(path, S.SEQUENCES_SCHEMA, use_dictionary=["doc_id", "source"],
                          compression="zstd") as w:
        for g in range(rows // per_group):
            w.write_table(pa.table({
                "doc_id": [f"web/0000/{g * per_group + i:08d}" for i in range(per_group)],
                "tokens": tokens,
                "n_tok": pa.array([width] * per_group, pa.int32()),
                "source": ["web"] * per_group,
            }, schema=S.SEQUENCES_SCHEMA))
    md = pq.read_metadata(path)
    assert md.num_row_groups == 30 and auto_batch_rows(md) < rows
    batches = list(iter_file_batches(path, ["doc_id", "n_tok", "source"], "auto"))
    assert [b.num_rows for b in batches] == [rows]
    assert batches[0]["row_index"].to_pylist() == list(range(rows))


@pytest.mark.parametrize("read_payload", [True, False])
def test_null_n_tok_is_a_violation_not_a_crash(tmp_path, monkeypatch, read_payload):
    """A null ``n_tok`` gets one E10 in pass 1, with or without the payload,
    and stays out of the n_tok histogram. In the key checks a null
    ``n_tok`` or ``expected_n_tok`` has no value, so it makes no E72; a
    doc_id's expectation is the MIN of its present ones, so a second
    manifest row with a null expectation does not hide a wrong one. One
    CPU, so one reduce task sees every key."""
    for mod in [m for n, m in sys.modules.items() if n.startswith("fastpasta_ray")]:
        if hasattr(mod, "cluster_cpus"):
            monkeypatch.setattr(mod, "cluster_cpus", lambda default=8: 1)
    d = str(tmp_path)
    write_fixture(d, SynthSpec(n_rows=40, n_parts=2, mean_n_tok=8))
    files = sequence_files(d)
    for path, row in zip(files, (3, 5)):
        t = pq.read_table(path)
        ntok = t["n_tok"].to_pylist()
        ntok[row] = None
        i = t.schema.get_field_index("n_tok")
        pq.write_table(t.set_column(i, t.schema.field(i), pa.array(ntok, pa.int32())), path)
    ids = pq.read_table(files[1], columns=["doc_id"])["doc_id"].to_pylist()
    m = os.path.join(d, "_manifest.parquet")
    man = pq.read_table(m)
    exp = man["expected_n_tok"].to_pylist()
    pos = {doc: i for i, doc in enumerate(man["doc_id"].to_pylist())}
    exp[pos[ids[7]]] = None  # no expectation: no E72
    exp[pos[ids[9]]] += 1  # a wrong one, plus a null twin below: E72
    wrong = exp[pos[ids[9]]]
    twin = man.take([pos[ids[9]]]).set_column(2, man.schema.field(2),
                                                pa.array([None], pa.int32()))
    man = man.set_column(2, man.schema.field(2), pa.array(exp, pa.int32()))
    pq.write_table(pa.concat_tables([man, twin]), m)

    res = run_check(d, CheckConfig(read_payload=read_payload), manifest_path=m)
    got = {(r["part"], r["row_index"], r["message"]) for r in res.violations.to_pylist()}
    assert got == {
        ("part-0000", 3, "[E10] n_tok is null"),
        ("part-0001", 5, "[E10] n_tok is null"),
        ("part-0001", 9, f"[E72] n_tok {wrong - 1} != manifest expected {wrong}"),
    }, got
    assert res.stats_by_part["part-0000"].n_tok_hist.n == 39
    # the cut both exchange sides read through carries the null as no value
    (_, loc, ntok), = K._cut(files[0], 0)
    assert ntok[K._unloc(loc)[1] == 3].tolist() == [K.NULL_N_TOK]
