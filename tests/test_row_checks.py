"""Unit tests: each stateless check on tiny in-memory Arrow tables with
EXACT expected violation rows (code, position, byte-exact message) —
mirroring the reference's in-module validator tests
(fastpasta/src/analyze/validators/rdh.rs:379-825)."""

import pyarrow as pa

from fastpasta_ray import schema as S
from fastpasta_ray.checks.row_checks import run_row_checks
from fastpasta_ray.checks.running_checks import RunningState
from fastpasta_ray.sketches import one_chunk


def mk_batch(rows):
    """rows: list of (doc_id, tokens, n_tok, source)."""
    return pa.table(
        {
            "part": pa.array(["part-0000"] * len(rows), type=pa.string()),
            "row_index": pa.array(range(len(rows)), type=pa.int64()),
            "doc_id": pa.array([r[0] for r in rows], type=pa.string()),
            "tokens": pa.array([r[1] for r in rows], type=pa.list_(pa.int32())),
            "n_tok": pa.array([r[2] for r in rows], type=pa.int32()),
            "source": pa.array([r[3] for r in rows], type=pa.string()),
        },
        schema=S.SEQUENCES_POS_SCHEMA,
    )


def ids_of(batch):
    """The batch's doc_id parse, as the validate stage builds it."""
    return S.doc_id_fields(one_chunk(batch["doc_id"]))


def toks_of(batch):
    """The batch's token-row layout, as the validate stage builds it."""
    return S.token_rows(one_chunk(batch["tokens"]))


def row_checks(batch, **kw):
    """``run_row_checks`` with the parse, layout and token min/max the
    validate stage hands it."""
    toks = toks_of(batch)
    minmax = (int(toks.flat.min()), int(toks.flat.max())) if len(toks.flat) else None
    return run_row_checks(batch, ids_of(batch), toks, minmax, **kw)


def running(st, batch):
    """``st.check_batch`` with the batch's doc_id parse."""
    return st.check_batch(batch, ids_of(batch))


CLEAN = ("web/0000/00000001", [1, 2, 3], 3, "web")


def codes_of(v):
    return sorted(zip(v["row_index"].to_pylist(), v["code"].to_pylist()))


def test_clean_row_no_violations():
    v = row_checks(mk_batch([CLEAN]))
    assert v.num_rows == 0
    assert v.schema.equals(S.VIOLATIONS_SCHEMA)


def test_ntok_mismatch_exact_row():
    v = row_checks(mk_batch([CLEAN, ("web/0000/00000002", [1, 2], 3, "web")]))
    assert codes_of(v) == [(1, "E10")]
    assert v["message"].to_pylist() == ["[E10] n_tok mismatch: expected 3 got 2"]


def test_token_out_of_range_reports_first_offender():
    v = row_checks(
        mk_batch([("web/0000/00000002", [1, 60000, 70000], 3, "web"), CLEAN])
    )
    assert codes_of(v) == [(0, "E70")]
    # message carries a token-window excerpt of the offending row (the
    # reference ErrPrinter's hex word dump analog, cdp_running.rs:620-625)
    assert v["message"].to_pylist() == [
        "[E70] token id 60000 out of range [0, 50304) at index 1 ctx [1 60000 70000]"
    ]


def test_negative_token():
    v = row_checks(mk_batch([("web/0000/00000002", [-1, 5], 2, "web")]))
    assert codes_of(v) == [(0, "E70")]
    assert "token id -1" in v["message"][0].as_py()


def test_null_tokens_truncated():
    v = row_checks(mk_batch([("web/0000/00000002", None, 3, "web")]))
    assert codes_of(v) == [(0, "E100")]
    assert v["message"].to_pylist() == ["[E100] tokens list is null (truncated row)"]


def test_source_null_empty_and_domain():
    v = row_checks(
        mk_batch(
            [
                ("web/0000/00000001", [1], 1, None),
                ("web/0000/00000002", [1], 1, ""),
                ("zzz/0000/00000003", [1], 1, "zzz"),
            ]
        )
    )
    assert codes_of(v) == [(0, "E40"), (1, "E40"), (2, "E41")]
    assert v["message"].to_pylist()[2] == "[E41] source 'zzz' not in domain"


def test_doc_id_format_and_null():
    v = row_checks(
        mk_batch(
            [
                (None, [1], 1, "web"),
                ("", [1], 1, "web"),
                ("not-a-doc-id", [1], 1, "web"),
                CLEAN,
            ]
        )
    )
    assert codes_of(v) == [(0, "E13"), (1, "E13"), (2, "E12")]


def test_multiple_codes_one_row():
    # one row can violate several checks at once
    v = row_checks(mk_batch([("bad", [99999], 5, "nope")]))
    got = sorted(v["code"].to_pylist())
    assert got == ["E10", "E12", "E41", "E70"]


def test_running_monotonic_across_batches():
    st = RunningState()
    b1 = mk_batch([("web/0000/00000005", [1], 1, "web")])
    v1 = running(st, b1)
    assert v1.num_rows == 0
    b2 = mk_batch([("web/0000/00000003", [1], 1, "web")])
    v2 = running(st, b2)
    assert codes_of(v2) == [(0, "E11")]
    assert v2["message"].to_pylist() == [
        "[E11] doc index not increasing: 3 after 5"
    ]


def test_running_equal_index_is_violation():
    st = RunningState()
    b = mk_batch(
        [
            ("web/0000/00000001", [1], 1, "web"),
            ("web/0000/00000001", [1], 1, "web"),
        ]
    )
    v = running(st, b)
    assert codes_of(v) == [(1, "E11")]


def test_running_skips_malformed_ids():
    st = RunningState()
    b = mk_batch(
        [
            ("web/0000/00000002", [1], 1, "web"),
            ("garbage", [1], 1, "web"),
            ("web/0000/00000004", [1], 1, "web"),
        ]
    )
    assert running(st, b).num_rows == 0
    assert st.last_idx == 4


def test_malformed_prefix_gets_e12_and_still_e11():
    """Only a doc_id without the ``/dddd/dddddddd`` tail leaves the running
    checks: an uppercase prefix is E12, and its tail still orders the row
    (E11 after a higher index)."""
    b = mk_batch([("web/0000/00000005", [1], 1, "web"), ("Web/0000/00000003", [1], 1, "web")])
    v = row_checks(b)
    assert codes_of(v) == [(1, "E12")]
    assert v["message"].to_pylist() == [
        f"[E12] doc_id 'Web/0000/00000003' does not match {S.DOC_ID_RE}"
    ]
    v = running(RunningState(), b)
    assert codes_of(v) == [(1, "E11")]
    assert v["message"].to_pylist() == ["[E11] doc index not increasing: 3 after 5"]


def test_mixed_null_and_out_of_range_rows():
    """Null tokens (E100) and out-of-range tokens (E70) in one batch: the
    flat→row index mapping must account for dropped null rows."""
    v = row_checks(
        mk_batch(
            [
                ("web/0000/00000001", None, 3, "web"),
                ("web/0000/00000002", [1, 99999], 2, "web"),
                ("web/0000/00000003", [1, 2], 2, "web"),
                ("web/0000/00000004", None, 1, "web"),
                ("web/0000/00000005", [70000], 1, "web"),
            ]
        )
    )
    assert codes_of(v) == [(0, "E100"), (1, "E70"), (3, "E100"), (4, "E70")]
    msgs = [m for m in v["message"].to_pylist() if "E70" in m]
    assert msgs == [
        "[E70] token id 99999 out of range [0, 50304) at index 1 ctx [1 99999]",
        "[E70] token id 70000 out of range [0, 50304) at index 0 ctx [70000]",
    ]


# ---------------------------------------------------------------------------
# E44x exact-stride sub-taxonomy (tdh.rs:60-206 / cdp_running.rs:342 analog)
# ---------------------------------------------------------------------------

def _ids(*idxs, ordinal="0000"):
    return [(f"web/{ordinal}/{i:08d}", [1], 1, "web") for i in idxs]


def test_stride_fresh_vs_continuation_exact_strings():
    """First mismatch → E440; immediately following mismatch → E441, each
    with byte-exact messages (first-vs-continuation split, tdh.rs:60-206)."""
    st = RunningState(expected_stride=2)
    v = running(st, mk_batch(_ids(0, 2, 5, 8, 10)))
    assert [(r, c) for r, c in zip(v["row_index"].to_pylist(), v["code"].to_pylist())] == [
        (2, "E440"), (3, "E441"),
    ]
    assert v["message"].to_pylist() == [
        "[E440] doc index stride 3 != expected 2 (5 after 2)",
        "[E441] doc index stride 3 != expected 2 (8 after 5; continuation of previous mismatch)",
    ]


def test_stride_continuation_carries_across_batches():
    """The fresh/continuation verdict survives a batch boundary: a mismatch
    at the end of batch 1 makes batch 2's first mismatch a continuation."""
    st = RunningState(expected_stride=1)
    v1 = running(st, mk_batch(_ids(0, 5)))
    assert v1["code"].to_pylist() == ["E440"]
    v2 = running(st, mk_batch(_ids(9)))
    assert v2["code"].to_pylist() == ["E441"]
    # a clean interval resets the continuation state
    v3 = running(st, mk_batch(_ids(10, 14)))
    assert v3["code"].to_pylist() == ["E440"]


def test_stride_repeat_and_decrease_codes():
    st = RunningState(expected_stride=1)
    v = running(st, mk_batch(_ids(4, 4, 2)))
    assert v["code"].to_pylist() == ["E442", "E443"]
    assert v["message"].to_pylist() == [
        "[E442] doc index 4 repeated (stride 0, expected 1)",
        "[E443] doc index decreased: 2 after 4 (expected stride 1)",
    ]


def test_stride_wrap_is_clean():
    """Index wrap at 10^8 with the right phase is NOT a violation (the
    reference wraps trigger_bc at MAX_BC, tdh.rs:96-108)."""
    st = RunningState(expected_stride=5)
    v = running(st, mk_batch(_ids(99_999_998, 3)))
    assert v.num_rows == 0


def mk_batch_at(rows, row_index):
    """mk_batch with explicit file-global row_index values (simulates a
    source-filtered view where surviving rows keep original positions)."""
    t = mk_batch(rows)
    return t.set_column(1, "row_index", pa.array(row_index, type=pa.int64()))


def test_index_row_desync_e445_exact_strings():
    """E445 (tdh.rs:157 / cdp_running.rs:620 analog): in filtered mode a
    surviving interval that is a CORRECT multiple of the stride but the
    WRONG multiple for the observed row gap is a cross-field desync."""
    st = RunningState(expected_stride=2, stride_multiples=True)
    # rows at original positions 0,3,5 with doc indexes 0,6,8:
    # 0->6 over row gap 3 = 3x2 OK; 6->8 over row gap 2 should be 4, not 2.
    v = running(st, mk_batch_at(_ids(0, 6, 8), [0, 3, 5]))
    assert [(r, c) for r, c in zip(v["row_index"].to_pylist(), v["code"].to_pylist())] == [
        (5, "E445"),
    ]
    assert v["message"].to_pylist() == [
        "[E445] doc index 8 after 6: stride 2 != row gap 2 x expected stride 2"
    ]


def test_index_row_desync_e445_carries_across_batches():
    st = RunningState(expected_stride=1, stride_multiples=True)
    assert running(st, mk_batch_at(_ids(0, 4), [0, 4])).num_rows == 0
    # next batch: doc index advanced 2 but row position advanced 3
    v = running(st, mk_batch_at(_ids(6), [7]))
    assert v["code"].to_pylist() == ["E445"]


def test_index_row_desync_not_doubled_with_e44x():
    """Intervals already flagged by E440-E443 must not also emit E445."""
    st = RunningState(expected_stride=2, stride_multiples=True)
    # delta 3 is not a multiple of 2 -> E440 only, no E445
    v = running(st, mk_batch_at(_ids(0, 3), [0, 1]))
    assert v["code"].to_pylist() == ["E440"]


def test_stride_multiples_full_wrap_gap_accepted():
    """ADVICE r3: a filtered gap spanning a full index wrap reads
    delta = k*stride - wrap, whose residue mod stride is (-wrap) mod
    stride when stride does not divide the wrap — accepted, not E440."""
    st = RunningState(expected_stride=3, stride_multiples=True)
    # k = 33,333,334 skipped rows: 1 + 3k = 100,000,003 -> wraps to 3
    v = running(st, mk_batch_at(_ids(1, 3), [0, 33_333_334]))
    assert v.num_rows == 0, v.to_pydict()


def test_e44_prefix_enables_e445():
    from fastpasta_ray.stages.validate import _filter_codes

    st = RunningState(expected_stride=2, stride_multiples=True)
    v = running(st, mk_batch_at(_ids(0, 6, 8), [0, 3, 5]))
    kept = _filter_codes(v, ("E44",))
    assert kept["code"].to_pylist() == ["E445"]
    assert _filter_codes(v, ("E70",)).num_rows == 0


def test_partition_ordinal_set_once_e444():
    """E444: the doc_id's 4-digit partition ordinal must not change
    mid-partition (set-once orbit analog) — both modes."""
    st = RunningState()  # monotonic mode
    b = mk_batch(_ids(1) + _ids(2, ordinal="0007") + _ids(3))
    v = running(st, b)
    assert [(r, c) for r, c in zip(v["row_index"].to_pylist(), v["code"].to_pylist())] == [
        (1, "E444"),
    ]
    assert v["message"].to_pylist() == [
        "[E444] doc_id partition ordinal 7 != partition's first 0"
    ]


def test_reduce_task_count_regimes():
    """The reduce sizing that fixed the 1->4 scaling drag (BASELINE r4):
    fixed-cost regime keeps few tasks; work-bound regime grants one task
    per ~750k exchanged rows up to the core count."""
    from fastpasta_ray.checks.key_checks import _reduce_task_count as n

    # bench scale at 32 cpus: fixed costs dominate -> cpus//4 floor
    assert n(32, 2_560_000) == 8
    # the measured drag case: 4 cpus, 4x fixture (~10.2M exchanged rows)
    # must use every core, not cpus//4 == 1
    assert n(4, 10_240_000) == 4
    # tiny exchange at tiny cpu count still gets >= 1 task
    assert n(1, 1000) == 1
    # work-bound but fewer rows than cores allow: scales with rows
    assert n(32, 6_000_000) == 8  # floor wins (750k*8)
    assert n(32, 12_000_000) == 16
    # never more tasks than cores
    assert n(64, 10**9) == 64
