"""Sequence-grammar (FSM analog) checks + the north-star per-row
token-array-equality invariant (BASELINE.json input_hint: "per-row
invariant vs the reference: token-array equality")."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fastpasta_ray import schema as S
from fastpasta_ray.checks.grammar import GrammarConfig, run_grammar_checks
from fastpasta_ray.checks.segments import run_segment_checks
from fastpasta_ray.pipelines.check import run_check
from fastpasta_ray.stages.validate import CheckConfig
from fastpasta_ray.synth import BOS_ID, EOS_ID, PAD_ID, SynthSpec, gen_partition, write_fixture
from tests.test_row_checks import mk_batch, toks_of

G = GrammarConfig(bos_id=BOS_ID, eos_id=EOS_ID, pad_id=PAD_ID)


def grammar(batch, g):
    """``run_grammar_checks`` with the batch's token-row layout, its hits
    materialized as the validate stage does."""
    return S.materialize(batch, [run_grammar_checks(batch, toks_of(batch), g)])


def segments(batch, **kw):
    """``run_segment_checks`` with the batch's token-row layout, its hits
    materialized as the validate stage does; with the new fatal headers."""
    hits, new_fatal = run_segment_checks(batch, toks_of(batch), **kw)
    return S.materialize(batch, [hits]), new_fatal


def drop_code(v, code):
    """``v`` without its ``code`` rows."""
    return v.filter(pc.not_equal(v["code"], code))


def codes_of(v):
    return sorted(zip(v["row_index"].to_pylist(), v["code"].to_pylist()))


def test_grammar_clean():
    v = grammar(mk_batch([("web/0000/00000001", [1, 7, 0, 0, 2], 5, "web")]),
                GrammarConfig(BOS_ID, EOS_ID, None))
    assert v.num_rows == 0


def test_grammar_missing_bos_eos():
    v = grammar(
        mk_batch(
            [
                ("web/0000/00000001", [9, 7, 2], 3, "web"),   # no BOS
                ("web/0000/00000002", [1, 7, 9], 3, "web"),   # no EOS
                ("web/0000/00000003", [1, 7, 2], 3, "web"),   # clean
            ]
        ),
        G,
    )
    assert codes_of(v) == [(0, "E30"), (1, "E50")]
    # messages carry a token-window excerpt of the offending row (the
    # reference ErrPrinter's hex word dump analog, cdp_running.rs:620-625)
    assert v["message"].to_pylist() == [
        "[E30] first token 9 != BOS 1 ctx [9 7 2]",
        "[E50] last token 9 != EOS 2 ctx [1 7 9]",
    ]


def test_grammar_interior_pad():
    v = grammar(
        mk_batch(
            [
                ("web/0000/00000001", [1, 0, 7, 2], 4, "web"),     # pad at 1
                ("web/0000/00000002", [1, 7, 0, 0], 4, "web"),     # tail pads only (no E60; E50 fires)
            ]
        ),
        G,
    )
    got = codes_of(v)
    assert (0, "E60") in got
    assert (1, "E60") not in got
    pad_msgs = [m for m in v["message"].to_pylist() if "E60" in m]
    assert pad_msgs == ["[E60] pad token 0 at interior index 1 ctx [1 0 7 2]"]


def test_grammar_null_and_empty_rows_skipped():
    v = grammar(
        mk_batch(
            [
                ("web/0000/00000001", None, 0, "web"),
                ("web/0000/00000002", [], 0, "web"),
                ("web/0000/00000003", [1, 2], 2, "web"),
            ]
        ),
        G,
    )
    assert v.num_rows == 0


def test_grammar_fixture_end_to_end(tmp_path):
    d = str(tmp_path / "fix")
    info = write_fixture(
        d,
        SynthSpec(n_rows=300, n_parts=2, grammar=True),
        defect="bad_grammar",
        defect_k=6,
    )
    res = run_check(
        d,
        cfg=CheckConfig(bos_id=BOS_ID, eos_id=EOS_ID, pad_id=PAD_ID),
        with_key_checks=False,
    )
    v = res.violations
    assert v.num_rows == 6
    assert set(v["code"].to_pylist()) == {"E30", "E50", "E60"}
    assert sorted(v["row_index"].to_pylist()) == sorted(info["defect_rows"]["part-0000"])
    # clean grammar fixture: zero violations
    d2 = str(tmp_path / "clean")
    write_fixture(d2, SynthSpec(n_rows=300, n_parts=2, grammar=True))
    res2 = run_check(
        d2, cfg=CheckConfig(bos_id=BOS_ID, eos_id=EOS_ID, pad_id=PAD_ID), with_key_checks=False
    )
    assert res2.violations.num_rows == 0


def test_per_row_token_equality_vs_generator(tmp_path):
    """North-star invariant: every row that passes validation carries a
    token array byte-equal to the generator's ground truth."""
    d = str(tmp_path / "fix")
    spec = SynthSpec(n_rows=200, n_parts=2)
    write_fixture(d, spec)
    res = run_check(d, manifest_path=os.path.join(d, "_manifest.parquet"))
    assert not res.any_errors
    from fastpasta_ray.sources.parquet import iter_file_batches

    for p in range(spec.n_parts):
        truth = gen_partition(spec, p)
        got = pa.concat_tables(
            [b.drop_columns(["part", "row_index"]) for b in
             iter_file_batches(os.path.join(d, f"part-{p:04d}.parquet"))]
        )
        assert got.equals(truth)  # byte-level column equality incl. tokens


# ---------------------------------------------------------------------------
# nested segment decode (ALPIDE deep-decode analog, checks/segments.py)
# ---------------------------------------------------------------------------

def _seg_batch(token_rows):
    import pyarrow as pa

    n = len(token_rows)
    return pa.table(
        {
            "part": pa.array(["p"] * n),
            "row_index": pa.array(range(n), type=pa.int64()),
            "doc_id": pa.array([f"d{i}" for i in range(n)]),
            "tokens": pa.array(token_rows, type=pa.list_(pa.int32())),
        }
    )


def test_segment_checks_exact_rows():
    DELIM = 99
    rows = [
        [5, 1, 2, 99, 5, 3, 99, 5, 4],      # 3 segments, headers all 5 → clean
        [5, 1, 99, 7, 2],                    # headers 5 vs 7 → E74
        [5, 1],                              # 1 segment → below min → E73
        [5, 1, 99, 99, 5, 2],                # consecutive delims → E75
        [99, 5, 1, 99, 5, 2],                # leading delim → E75 (empty first)
        [5, 1, 99, 5, 2, 99],                # trailing delim → E75 (empty last)
        [],                                  # empty row: no segment checks
    ]
    v, new_fatal = segments(
        _seg_batch(rows), delim_id=DELIM, min_segments=2, max_segments=3
    )
    assert new_fatal == []
    got = sorted(zip(v["row_index"].to_pylist(), v["code"].to_pylist()))
    assert got == [(1, "E74"), (2, "E73"), (3, "E75"), (4, "E75"), (5, "E75")]


def test_segment_checks_via_pipeline(tmp_path):
    """End-to-end: segment config through CheckConfig over a written fixture."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastpasta_ray.pipelines.check import run_check
    from fastpasta_ray.stages.validate import CheckConfig

    d = str(tmp_path / "segfix")
    os.makedirs(d)
    rows = [
        [5, 1, 2, 99, 5, 3],   # clean (2 segments, equal headers)
        [5, 1, 99, 6, 2],      # E74
    ]
    t = pa.table(
        {
            "doc_id": pa.array(["web/0000/00000000", "web/0000/00000001"]),
            "tokens": pa.array(rows, type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
            "source": pa.array(["web", "web"]),
        }
    )
    pq.write_table(t, os.path.join(d, "part-0000.parquet"))
    res = run_check(
        d,
        cfg=CheckConfig(segment_delim_id=99, min_segments=1, max_segments=8),
        with_key_checks=False,
    )
    assert res.violations.num_rows == 1
    assert res.violations["code"].to_pylist() == ["E74"]


def test_segment_allowed_orders_e76():
    """chip_orders_ob analog (custom_checks_cfg.rs:16-24): the header
    sequence must be one of the allowed orderings — a swapped order is
    caught with an exact violation row; both allowed orders pass."""
    DELIM = 99
    rows = [
        [5, 1, 99, 6, 2, 99, 7, 3],   # headers (5,6,7) → allowed
        [8, 1, 99, 9, 2],             # headers (8,9)   → allowed (2nd order)
        [5, 1, 99, 7, 2, 99, 6, 3],   # headers (5,7,6) → WRONG order → E76
        [5, 1, 99, 6, 2],             # headers (5,6)   → length matches no order → E76
    ]
    v, _ = segments(
        _seg_batch(rows),
        delim_id=DELIM,
        allowed_orders=((5, 6, 7), (8, 9)),
    )
    v = drop_code(v, "E74")  # isolate E76 (headers differ → E74 noise)
    got = sorted(zip(v["row_index"].to_pylist(), v["code"].to_pylist()))
    assert got == [(2, "E76"), (3, "E76")]
    msgs = dict(zip(v["row_index"].to_pylist(), v["message"].to_pylist()))
    assert msgs[2] == "[E76] segment header order [5, 7, 6] not in allowed orderings"


def test_segment_allowed_orders_via_config(tmp_path):
    """allowed_segment_orders flows through CheckConfig (and survives the
    TOML config round-trip as tuples)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastpasta_ray.checks.registry import load_config, save_config
    from fastpasta_ray.pipelines.check import run_check
    from fastpasta_ray.stages.validate import CheckConfig

    cfg = CheckConfig(
        segment_delim_id=99,
        allowed_segment_orders=((5, 6), (8, 9)),
        enabled_codes=("E76",),
    )
    p = str(tmp_path / "cfg.toml")
    save_config(cfg, p)
    assert load_config(p) == cfg

    d = str(tmp_path / "segfix2")
    os.makedirs(d)
    from fastpasta_ray.schema import SEQUENCES_SCHEMA
    toks = [[5, 1, 99, 6, 2], [6, 1, 99, 5, 2]]
    t = pa.table(
        {
            "doc_id": pa.array([f"web/0000/{i:08d}" for i in range(2)]),
            "tokens": pa.array(toks, type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(x) for x in toks], type=pa.int32()),
            "source": pa.array(["web", "web"]),
        },
        schema=SEQUENCES_SCHEMA,
    )
    pq.write_table(t, os.path.join(d, "part-0000.parquet"))
    res = run_check(d, cfg=load_config(p), with_key_checks=False)
    assert res.violations.num_rows == 1
    assert res.violations["code"].to_pylist() == ["E76"]
    assert res.violations["row_index"].to_pylist() == [1]


def test_ape_ladder_warning_and_fatal():
    """APE lane-status ladder analog (lane_alpide_frame_analyzer.rs:73-177,
    alpide_word.rs:36-49): a warning sentinel inside a segment reports E77
    and changes NOTHING else; a fatal sentinel reports E78 with the exact
    headers, lowers the E73 band from the onset ROW on (the reference's
    expect_lane_count -= fatal_lanes.len(), applied to the reporting frame
    itself, readout_frame.rs:106-118), and drops the fatal header out of
    E74 equality and E76 ordering."""
    DELIM, WARN, FATAL = 99, 901, 902
    rows = [
        [5, 1, 99, 5, 2, 99, 5, 3],           # clean: 3 segments
        [5, 1, WARN, 99, 5, 2, 99, 5, 3],     # E77 only — still 3 segments
        [5, 1, 99, 7, FATAL, 99, 5, 3],       # header 7 goes FATAL: E78; 3 segs
                                               # vs band [3,3]-1 → E73 fires
                                               # (transition row, like the ref);
                                               # E74 skips the fatal segment
        [5, 1, 99, 5, 2],                      # 2 segments vs [3,3]-1 → clean
        [5, 1, 99, 7, 9, 99, 5, 2],            # header 7 STILL fatal: excluded
                                               # from E74; 3 segs vs [2,2] → E73
    ]
    v, new_fatal = segments(
        _seg_batch(rows),
        delim_id=DELIM,
        min_segments=3,
        max_segments=3,
        warning_sentinels=(WARN,),
        fatal_sentinels=(FATAL,),
    )
    assert new_fatal == [7]
    got = sorted(zip(v["row_index"].to_pylist(), v["code"].to_pylist()))
    assert got == [(1, "E77"), (2, "E73"), (2, "E78"), (4, "E73")]
    msgs = {
        (r, c): m
        for r, c, m in zip(
            v["row_index"].to_pylist(), v["code"].to_pylist(), v["message"].to_pylist()
        )
    }
    assert msgs[(1, "E77")] == (
        "[E77] 1 segment(s) in WARNING status (warning sentinel seen)"
    )
    assert msgs[(2, "E78")] == (
        "[E78] 1 segment(s) in FATAL status; headers [7] "
        "excluded from lane checks from this row on"
    )
    assert msgs[(2, "E73")] == (
        "[E73] segment count 3 outside [3, 3] less 1 fatal segment(s)"
    )
    assert msgs[(4, "E73")] == (
        "[E73] segment count 3 outside [3, 3] less 1 fatal segment(s)"
    )


def test_ape_ladder_fatal_excluded_from_e76_orders():
    """Fatal headers are removed from the allowed orderings before the E76
    match — the validate_inner_lane_groupings adjustment
    (alpide_readout_frame.rs:96-129): after header 6 goes fatal, (5, 7) is
    a valid remnant of the allowed (5, 6, 7)."""
    DELIM, FATAL = 99, 902
    rows = [
        [5, 1, 99, 6, 2, 99, 7, 3],           # (5,6,7): allowed
        [5, 1, 99, 6, FATAL, 99, 7, 3],       # 6 goes fatal; non-fatal (5,7)
                                               # matches (5,6,7) minus {6} → OK
        [5, 1, 99, 7, 2],                      # (5,7) still OK (6 remains fatal)
        [7, 1, 99, 5, 2],                      # (7,5): wrong order → E76
    ]
    v, new_fatal = segments(
        _seg_batch(rows),
        delim_id=DELIM,
        allowed_orders=((5, 6, 7),),
        fatal_sentinels=(FATAL,),
    )
    v = drop_code(v, "E74")  # isolate E76 and E78
    assert new_fatal == [6]
    got = sorted(zip(v["row_index"].to_pylist(), v["code"].to_pylist()))
    assert got == [(1, "E78"), (3, "E76")]


def test_ape_ladder_running_across_batches_and_report():
    """The fatal set carries across batches of a partition (ValidateFiles
    passes and grows PartStats.fatal_segments) and surfaces as the per-run
    fatal list in the report — readout_frame.rs:40-50 add_fatal_lanes."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from fastpasta_ray.pipelines.check import run_check
    from fastpasta_ray.stages.validate import CheckConfig

    # unit-level: batch 2 sees batch 1's fatal header via fatal_heads
    v2, nf2 = segments(
        _seg_batch([[5, 1, 99, 7, 2]]),
        delim_id=99,
        min_segments=2,
        max_segments=2,
        fatal_sentinels=(902,),
        fatal_heads=frozenset({7}),
    )
    # 2 segments vs band [2,2]-1=[1,1] → E73 (7 still counted, band shrunk)
    assert v2["code"].to_pylist() == ["E73"]
    assert nf2 == []

    # pipeline-level: report carries the per-partition fatal list
    import tempfile

    d = tempfile.mkdtemp()
    rows = [
        [5, 1, 99, 7, 902, 99, 6, 3],
        [5, 1, 99, 6, 2],
    ]
    t = pa.table(
        {
            "doc_id": pa.array(["web/0000/00000000", "web/0000/00000001"]),
            "tokens": pa.array(rows, type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(r) for r in rows], type=pa.int32()),
            "source": pa.array(["web", "web"]),
        }
    )
    pq.write_table(t, os.path.join(d, "part-0000.parquet"))
    res = run_check(
        d,
        cfg=CheckConfig(segment_delim_id=99, fatal_sentinel_ids=(902,)),
        with_key_checks=False,
    )
    assert res.report["fatal_segments"] == {"part-0000": [7]}
    assert "E78" in res.report["violations_by_code"]
