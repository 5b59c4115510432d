"""Stateless per-row sanity checks → violation rows. Fully vectorized.

Analog of the reference's sanity validators (C1–C8 in SURVEY.md §2.3):
RdhCruSanityValidator (rdh.rs:130-160), data-word ID ranges
(data_words.rs:15-48), payload preprocessing errors (validators/lib.rs:25-100).
Every check computes a boolean mask over the batch with pyarrow.compute /
numpy — never a Python loop over rows — then violation rows are gathered
only for the (rare) failing positions.

Message formats are FROZEN (tests assert byte-exact strings, mirroring
cdp_running.rs:520-531 exact-string asserts).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from fastpasta_ray import schema as S
from fastpasta_ray.sketches import one_chunk


def run_row_checks(
    batch: pa.Table,
    *,
    vocab: int = S.VOCAB_SIZE,
    source_domain: tuple = S.SOURCES,
    flat_vals: np.ndarray | None = None,
    flat_minmax: tuple | None = None,
) -> pa.Table:
    """All stateless checks over one Arrow batch (SEQUENCES_POS_SCHEMA).

    Returns a VIOLATIONS_SCHEMA table (possibly empty). Vectorized:
    token-range scan uses flattened list values + np.minimum.reduceat over
    list offsets — one pass over the payload, no per-row Python.

    ``flat_vals`` / ``flat_minmax``: the caller (validate stage) already
    flattened the tokens and computed the global min/max for its stats —
    passing them here avoids re-walking the payload (2 fewer full passes
    per batch on a memory-bandwidth-bound workload).
    """
    doc_id = one_chunk(batch["doc_id"])
    # scalar-only mode (read_payload=False, M7 skip_payload analog): the
    # tokens column is pruned at the read; token checks are skipped
    has_tokens = "tokens" in batch.column_names
    tokens = one_chunk(batch["tokens"]) if has_tokens else None
    n_tok = one_chunk(batch["n_tok"])
    source = one_chunk(batch["source"])
    n = batch.num_rows
    hits: list[tuple] = []  # (rows, code, column, details) per rule

    # --- E100: tokens null (truncated row) — analog [E100] partial payload
    if has_tokens:
        tok_null = pc.is_null(tokens)
        null_rows = np.flatnonzero(tok_null.to_numpy(zero_copy_only=False))
        hits.append((
            null_rows, S.E_TOKENS_NULL, "tokens",
            ["tokens list is null (truncated row)"] * len(null_rows),
        ))

    # --- E10: n_tok != len(tokens) — analog RDH sanity [E10]
    if has_tokens:
        lens = pc.list_value_length(tokens)  # null where tokens null
        mism = pc.and_kleene(pc.is_valid(lens), pc.not_equal(lens, pc.cast(n_tok, pa.int32())))
        mism = pc.fill_null(mism, False)
        mrows = np.flatnonzero(mism.to_numpy(zero_copy_only=False))
        if len(mrows):
            lens_np = lens.to_numpy(zero_copy_only=False)
            ntok_np = n_tok.to_numpy(zero_copy_only=False)
            hits.append((
                mrows, S.E_NTOK_MISMATCH, "n_tok",
                [
                    f"n_tok mismatch: expected {int(ntok_np[r])} got {int(lens_np[r])}"
                    for r in mrows
                ],
            ))

    # --- E70: token out of vocab range — analog invalid data-word ID [E70]
    if flat_vals is not None:
        vals = flat_vals
    elif has_tokens:
        vals = tokens.flatten().to_numpy(zero_copy_only=False)  # drops null rows
    else:
        vals = np.zeros(0, dtype=np.int64)
    if flat_minmax is not None:
        vmin, vmax = flat_minmax
    elif len(vals):
        vmin, vmax = int(vals.min()), int(vals.max())
    else:
        vmin, vmax = 0, 0
    # cheap global min/max gate first: the expensive per-token mask (and its
    # len(vals)-sized temp) only runs when a violation actually exists
    if len(vals) and (vmin < 0 or vmax >= vocab):
        if vals.dtype == np.int32 and 0 <= vocab <= 2**31:
            # one compare, one temporary: viewed unsigned, a negative id is
            # at least 2**31, so it fails the upper bound too
            bad = vals.view(np.uint32) >= np.uint32(vocab)
        else:
            bad = (vals < 0) | (vals >= vocab)
        if bad.any():
            # map flat positions back to rows via valid-row lengths
            lens_np = lens.to_numpy(zero_copy_only=False)
            valid_lens = np.where(np.isnan(lens_np), 0, lens_np).astype(np.int64) if lens_np.dtype.kind == "f" else np.where(pc.is_null(lens).to_numpy(zero_copy_only=False), 0, lens_np).astype(np.int64)
            starts = np.zeros(n, dtype=np.int64)
            np.cumsum(valid_lens[:-1], out=starts[1:])
            bad_pos = np.flatnonzero(bad)
            # the row holding a flat position: the last row starting at or
            # before it (empty rows share their start with the next row)
            bad_rows_all = np.searchsorted(starts, bad_pos, side="right") - 1
            # first offending token per row (reference reports first failure)
            first_sel = np.ones(len(bad_pos), dtype=bool)
            first_sel[1:] = bad_rows_all[1:] != bad_rows_all[:-1]
            sel = np.flatnonzero(first_sel)
            rows_ = bad_rows_all[sel]
            tok_idx = bad_pos[sel] - starts[rows_]
            tok_val = vals[bad_pos[sel]]
            row_ends = starts[rows_] + valid_lens[rows_]
            hits.append((
                rows_, S.E_TOKEN_RANGE, "tokens",
                [
                    f"token id {int(v)} out of range [0, {vocab}) at index {int(i)}"
                    f" ctx [{S.token_excerpt(vals, s, e, p)}]"
                    for v, i, s, e, p in zip(
                        tok_val, tok_idx, starts[rows_], row_ends, bad_pos[sel]
                    )
                ],
            ))

    # --- E40 / E41: source null/empty, source not in domain — analog [E40]/[E41]
    src_null = pc.fill_null(
        pc.or_(pc.is_null(source), pc.equal(source, pa.scalar(""))), True
    )
    null_src_rows = np.flatnonzero(src_null.to_numpy(zero_copy_only=False))
    hits.append((
        null_src_rows, S.E_SOURCE_NULL, "source",
        ["source is null or empty"] * len(null_src_rows),
    ))
    in_dom = pc.is_in(source, value_set=pa.array(list(source_domain), type=pa.string()))
    bad_dom = pc.and_kleene(
        pc.invert(pc.fill_null(in_dom, False)), pc.invert(src_null)
    )
    bad_dom = pc.fill_null(bad_dom, False)
    dom_rows = np.flatnonzero(bad_dom.to_numpy(zero_copy_only=False))
    if len(dom_rows):
        src_py = pc.take(source, pa.array(dom_rows)).to_pylist()
        hits.append((
            dom_rows, S.E_SOURCE_DOMAIN, "source",
            [f"source {s!r} not in domain" for s in src_py],
        ))

    # --- E13 / E12: doc_id null, doc_id format + prefix==source — analog [E12]
    did_null = pc.fill_null(
        pc.or_(pc.is_null(doc_id), pc.equal(doc_id, pa.scalar(""))), True
    )
    did_null_rows = np.flatnonzero(did_null.to_numpy(zero_copy_only=False))
    hits.append((
        did_null_rows, S.E_DOCID_NULL, "doc_id",
        ["doc_id is null or empty"] * len(did_null_rows),
    ))
    fmt_ok = pc.match_substring_regex(doc_id, S.DOC_ID_RE)
    bad_fmt = pc.fill_null(pc.and_kleene(pc.invert(fmt_ok), pc.invert(did_null)), False)
    fmt_rows = np.flatnonzero(bad_fmt.to_numpy(zero_copy_only=False))
    if len(fmt_rows):
        ids = pc.take(doc_id, pa.array(fmt_rows)).to_pylist()
        hits.append((
            fmt_rows, S.E_DOCID_FORMAT, "doc_id",
            [f"doc_id {d!r} does not match {S.DOC_ID_RE}" for d in ids],
        ))

    return S.batch_violations(batch, *S.rule_rows(hits))
