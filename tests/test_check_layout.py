"""Layout invariance of ``run_check``: the violations and the report depend
on the rows, not on how the files are cut into row groups, how pass 1
cuts them into batches, or how many CPUs the task groupings assume.

One fixture carries several defects at once, so every stateful check and
both sides of the key-check exchange have something to find at some
batch or group boundary:

- grammar (E30/E50/E60) in two partitions;
- segments with a delimiter, a warning and a fatal sentinel: the fatal
  header joins the partition's running fatal set and drops later rows of
  that header out of E74, across batches;
- two swapped doc indexes straddling the 97-row batch boundary (E11);
- around that boundary in another partition, one row each with null
  tokens (E100), an uppercase doc_id prefix (E12), a null doc_id (E13),
  a wrong n_tok (E10) and an out-of-vocab token (E70), so the per-batch
  doc_id parse and token layout meet every batch cut;
- a doc_id copied across partitions (E80), and a manifest with rows
  dropped (E71), expectations changed (E72) and extra rows (E701);
- one wrong-schema and one unreadable partition (E14)."""

import json
import os
import sys

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fastpasta_ray.pipelines.check import run_check
from fastpasta_ray.stages.validate import CheckConfig
from fastpasta_ray.synth import BOS_ID, EOS_ID, PAD_ID, SynthSpec, write_fixture

DELIM, WARN, FATAL = 3, 1500, 1501  # the synth vocab (< 1000) never draws them


def _edit_tokens(t: pa.Table, edits: dict) -> pa.Table:
    """Set ``tokens[row][pos] = value`` for each ``(row, pos): value``."""
    rows = t["tokens"].to_pylist()
    for (row, pos), value in edits.items():
        rows[row][pos] = value
    i = t.schema.get_field_index("tokens")
    return t.set_column(i, t.schema.field(i), pa.array(rows, t.schema.field(i).type))


def _fixture(d: str, row_group_size: int) -> str:
    write_fixture(d, SynthSpec(n_rows=300, n_parts=6, mean_n_tok=16, vocab=1000, grammar=True),
                  defect="bad_grammar", defect_k=6, defect_parts=(0, 2),
                  row_group_size=row_group_size)
    path = lambda p: os.path.join(d, f"part-{p:04d}.parquet")  # noqa: E731
    write = lambda t, p: pq.write_table(t, p, row_group_size=row_group_size)  # noqa: E731
    # segments in part 1: a second segment with header 7 (E74), a third
    # one (E73), a warning, and at row 120 (second batch at 97 rows) a
    # fatal segment of header 9, after which header 9 no longer trips E74
    t = pq.read_table(path(1))
    seg = {(10, 5): DELIM, (10, 6): 7, (50, 5): DELIM, (50, 6): 9, (60, 4): DELIM,
           (60, 6): DELIM, (80, 3): WARN, (120, 5): DELIM, (120, 6): 9, (120, 7): FATAL,
           (200, 5): DELIM, (200, 6): 9, (250, 5): DELIM, (250, 6): 7}
    write(_edit_tokens(t, seg), path(1))
    # part 3: doc indexes 96 and 97 swapped (E11 at the batch boundary),
    # and part 0's first doc_id copied in (E80)
    t = pq.read_table(path(3))
    ids = t["doc_id"].to_pylist()
    ids[96], ids[97] = ids[97], ids[96]
    ids[40] = pq.read_table(path(0), columns=["doc_id"])["doc_id"][0].as_py()
    write(t.set_column(0, "doc_id", pa.array(ids, pa.string())), path(3))
    # part 5, rows 95-99 around the 97-row batch boundary: null tokens
    # (E100), an uppercase prefix (E12), a null doc_id (E13), n_tok one
    # too high (E10) and a token past the default vocab (E70)
    t = pq.read_table(path(5))
    ids, toks, ntok = (t[c].to_pylist() for c in ("doc_id", "tokens", "n_tok"))
    toks[95] = None
    ids[96] = ids[96].capitalize()
    ids[97] = None
    ntok[98] += 1
    toks[99][2] = 60_000
    for c, v in (("doc_id", ids), ("tokens", toks), ("n_tok", ntok)):
        i = t.schema.get_field_index(c)
        t = t.set_column(i, t.schema.field(i), pa.array(v, t.schema.field(i).type))
    write(t, path(5))
    # manifest: part 4's rows 0-4 dropped (E71), part 5's first three
    # expectations changed (E72), two unknown doc_ids (E701)
    m = os.path.join(d, "_manifest.parquet")
    man = pq.read_table(m)
    gone = pq.read_table(path(4), columns=["doc_id"])["doc_id"][:5]
    man = man.filter(pc.invert(pc.is_in(man["doc_id"], gone)))
    changed = pq.read_table(path(5), columns=["doc_id"])["doc_id"][:3]
    exp = man["expected_n_tok"]
    exp = pc.if_else(pc.is_in(man["doc_id"], changed), pc.add(exp, pa.scalar(1, exp.type)), exp)
    man = man.set_column(2, man.schema.field(2), exp)
    extra = pa.table({"doc_id": ["web/0099/00000000", "code/0099/00000001"],
                      "source": ["web", "code"],
                      "expected_n_tok": pa.array([5, 6], man.schema.field(2).type)},
                     schema=man.schema)
    write(pa.concat_tables([man, extra]), m)
    # one wrong-schema and one unreadable partition (E14)
    pq.write_table(pq.read_table(path(0), columns=["doc_id", "tokens"]), path(6))
    raw = open(path(0), "rb").read()
    with open(path(7), "wb") as f:
        f.write(raw[: len(raw) // 2])
    return m


@pytest.fixture(scope="module")
def layouts(tmp_path_factory):
    out = {}
    for rgs in (10_000, 37):
        d = str(tmp_path_factory.mktemp(f"rg{rgs}"))
        out[rgs] = d, _fixture(d, rgs)
    return out


def _layout_runs(layouts, monkeypatch, **cfg_kw):
    """``run_check`` at ``batch_rows`` {"auto", 97} × row groups {default,
    37 rows} × ``cluster_cpus`` 1 and 3 (patched in every module that
    imports it, so pass 1 and the manifest maps are grouped differently);
    asserts that all eight runs give equal violations and byte-identical
    report JSON, and returns the first run's ``(violations, report)``."""
    runs = {}
    for cpus in (1, 3):
        for mod in [m for n, m in sys.modules.items() if n.startswith("fastpasta_ray")]:
            if hasattr(mod, "cluster_cpus"):
                monkeypatch.setattr(mod, "cluster_cpus", lambda default=8, c=cpus: c)
        for rgs, (d, m) in layouts.items():
            for batch_rows in ("auto", 97):
                cfg = CheckConfig(
                    batch_rows=batch_rows, bos_id=BOS_ID, eos_id=EOS_ID, pad_id=PAD_ID,
                    segment_delim_id=DELIM, min_segments=1, max_segments=2,
                    warning_sentinel_ids=(WARN,), fatal_sentinel_ids=(FATAL,), **cfg_kw,
                )
                res = run_check(d, cfg, manifest_path=m)
                runs[cpus, rgs, batch_rows] = res.violations, json.dumps(res.report,
                                                                         sort_keys=True)
    v0, r0 = runs[1, 10_000, "auto"]
    for key, (v, r) in runs.items():
        assert v.equals(v0), key
        assert r == r0, key
    return v0, json.loads(r0)


def _kept(v, part):
    """``(row_index, code)`` of ``part``'s violations, in order."""
    return [(r["row_index"], r["code"]) for r in v.to_pylist() if r["part"] == part]


def test_run_check_is_layout_invariant(layouts, monkeypatch):
    """All eight layouts give equal violations and byte-identical report
    JSON, and every planted defect is found."""
    v0, report = _layout_runs(layouts, monkeypatch)
    codes = set(v0["code"].to_pylist())
    assert {"E14", "E11", "E30", "E50", "E60", "E73", "E74", "E77", "E78",
            "E80", "E71", "E72", "E701", "E10", "E12", "E13", "E70", "E100"} <= codes, codes
    assert report["fatal_segments"] == {"part-0001": [9]}
    # the fatal onset at row 120 carries over to row 200 in a later batch
    e74 = v0.filter(pc.equal(v0["code"], "E74"))["row_index"].to_pylist()
    assert 50 in e74 and 250 in e74 and 200 not in e74, e74


def test_capped_run_check_is_layout_invariant(layouts, monkeypatch):
    """With ``max_errors_per_part`` 3, part 1 reaches the cap inside its
    first 97-row batch (E74 at rows 10 and 50, E73 at row 60), before its
    fatal onset at row 120. Every layout keeps each partition's first three
    pass-1 violations in row order, and the capped batches still carry
    the fatal header into the report."""
    v0, report = _layout_runs(layouts, monkeypatch, max_errors_per_part=3)
    assert report["fatal_segments"] == {"part-0001": [9]}
    assert _kept(v0, "part-0001") == [(10, "E74"), (50, "E74"), (60, "E73")]
    # part 5's pass-1 rows (the key checks of pass 2 are not capped)
    assert [k for k in _kept(v0, "part-0005") if k[1] not in ("E71", "E72")] == [
        (95, "E100"), (96, "E12"), (97, "E13")]


def test_capped_filtered_run_check_is_layout_invariant(layouts, monkeypatch):
    """With ``max_errors_per_part`` 3 and ``enabled_codes`` E73, E77, E78,
    the prefix E1 and an empty entry (which enables nothing), the cap
    counts only enabled codes: part 1 passes over its E74 rows 10 and 50
    and keeps E73 at 60, E77 at 80 and, from the second 97-row batch, the
    fatal onset's E78 at 120, at every layout."""
    enabled = ("E73", "E77", "E78", "E1", "")
    v0, report = _layout_runs(layouts, monkeypatch, max_errors_per_part=3,
                              enabled_codes=enabled)
    assert report["fatal_segments"] == {"part-0001": [9]}
    assert _kept(v0, "part-0001") == [(60, "E73"), (80, "E77"), (120, "E78")]
    assert _kept(v0, "part-0005") == [(95, "E100"), (96, "E12"), (97, "E13")]
    codes = set(v0["code"].to_pylist())
    assert {"E11", "E14"} <= codes <= {"E73", "E77", "E78", "E10", "E11", "E12", "E13",
                                       "E14", "E100"}, codes


def test_scalar_run_check_is_layout_invariant(layouts, monkeypatch):
    """``read_payload=False``: pass 1 reads doc_id, n_tok and source
    through ``ParquetFile``, whose batches span row groups (97-row batches
    over 37-row groups). All eight layouts give equal violations and
    byte-identical report JSON; every scalar defect is found and no token
    code is emitted (part 5's n_tok one too high has no tokens to differ
    from, so no E10)."""
    v0, _ = _layout_runs(layouts, monkeypatch, read_payload=False)
    codes = set(v0["code"].to_pylist())
    assert {"E14", "E11", "E12", "E13", "E80", "E71", "E72", "E701"} <= codes, codes
    token_codes = {"E10", "E30", "E50", "E60", "E70", "E73", "E74", "E75", "E76", "E77",
                   "E78", "E100"}
    assert not codes & token_codes, codes
