"""Stateless per-row sanity checks → violation rows. Fully vectorized.

Analog of the reference's sanity validators (C1–C8 in SURVEY.md §2.3):
RdhCruSanityValidator (rdh.rs:130-160), data-word ID ranges
(data_words.rs:15-48), payload preprocessing errors (validators/lib.rs:25-100).
Every check computes a boolean mask over the batch with pyarrow.compute /
numpy — never a Python loop over rows — and returns its failing rows per
rule (``schema.Hits``); a rule's message details are formatted only for
the rows ``schema.materialize`` keeps.

The checks parse nothing themselves: the validate stage parses each
batch once and hands every check the same result, as the reference
deserializes each record header once for all its validators
(rdh_cru.rs:50-63). E12/E13 read ``schema.doc_id_fields``, and
E10's length compare, E70 and E100 read ``schema.token_rows``; a null
``n_tok`` gets its own E10 with or without the payload.

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
    ids: S.DocIds,
    toks: S.TokenRows | None,
    minmax: tuple | None,
    *,
    vocab: int = S.VOCAB_SIZE,
    source_domain: tuple = S.SOURCES,
) -> S.Hits:
    """All stateless checks over one Arrow batch (SEQUENCES_POS_SCHEMA).

    Returns the batch's hits, rule by rule (``schema.Hits``). ``ids`` is the
    batch's ``schema.doc_id_fields``; ``toks`` its ``schema.token_rows``,
    or None in scalar-only mode (read_payload=False, the M7 skip_payload
    analog), where the token checks are skipped; ``minmax`` the token
    values' (min, max) from the validate stage's fused scan
    (``sketches.scan_token_values``), None when the batch has no token.
    """
    source = one_chunk(batch["source"])
    n_tok = one_chunk(batch["n_tok"])
    hits = S.Hits()

    if toks is not None:
        flat, starts, lens, valid = toks
        # --- E100: tokens null (truncated row) — analog [E100] partial payload
        null_rows = np.flatnonzero(~valid)
        hits.append((null_rows, S.E_TOKENS_NULL, "tokens", "tokens list is null (truncated row)"))
        # --- E10: n_tok != len(tokens) — analog RDH sanity [E10]
        ntok_np = n_tok.to_numpy(zero_copy_only=False)
        mism = valid & (lens != ntok_np)
        if n_tok.null_count:
            mism &= n_tok.is_valid().to_numpy(zero_copy_only=False)
        mrows = np.flatnonzero(mism)
        hits.append((
            mrows, S.E_NTOK_MISMATCH, "n_tok",
            lambda k: [f"n_tok mismatch: expected {int(ntok_np[r])} got {int(lens[r])}"
                       for r in mrows[k]],
        ))
    # --- E10: a null n_tok has no count to check, with or without the payload
    if n_tok.null_count:
        null_ntok = np.flatnonzero(n_tok.is_null().to_numpy(zero_copy_only=False))
        hits.append((null_ntok, S.E_NTOK_MISMATCH, "n_tok", "n_tok is null"))

    # --- E70: token out of vocab range — analog invalid data-word ID [E70]
    # cheap global min/max gate first: the expensive per-token mask (and its
    # len(flat)-sized temp) only runs when a violation actually exists
    if minmax is not None and (minmax[0] < 0 or minmax[1] >= vocab):
        if flat.dtype == np.int32 and 0 <= vocab <= 2**31:
            # one compare, one temporary: viewed unsigned, a negative id is
            # at least 2**31, so it fails the upper bound too
            bad = flat.view(np.uint32) >= np.uint32(vocab)
        else:
            bad = (flat < 0) | (flat >= vocab)
        bad_pos = np.flatnonzero(bad)
        # the row holding a flat position: the last row starting at or
        # before it (empty and null rows share their start with the next row)
        bad_rows_all = np.searchsorted(starts, bad_pos, side="right") - 1
        # first offending token per row (reference reports first failure)
        first_sel = np.ones(len(bad_pos), dtype=bool)
        first_sel[1:] = bad_rows_all[1:] != bad_rows_all[:-1]
        first = bad_pos[first_sel]
        rows_ = bad_rows_all[first_sel]

        def e70(k):
            at, lo = first[k], starts[rows_[k]]
            return [
                f"token id {int(flat[p])} out of range [0, {vocab}) at index {int(p - s)}"
                f" ctx [{S.token_excerpt(flat, s, e, p)}]"
                for p, s, e in zip(at, lo, lo + lens[rows_[k]])
            ]

        hits.append((rows_, S.E_TOKEN_RANGE, "tokens", e70))

    # --- E40 / E41: source null/empty, source not in domain — analog [E40]/[E41]
    src_null = pc.fill_null(
        pc.or_(pc.is_null(source), pc.equal(source, pa.scalar(""))), True
    )
    null_src_rows = np.flatnonzero(src_null.to_numpy(zero_copy_only=False))
    hits.append((null_src_rows, S.E_SOURCE_NULL, "source", "source is null or empty"))
    in_dom = pc.is_in(source, value_set=pa.array(list(source_domain), type=pa.string()))
    bad_dom = pc.and_kleene(
        pc.invert(pc.fill_null(in_dom, False)), pc.invert(src_null)
    )
    bad_dom = pc.fill_null(bad_dom, False)
    dom_rows = np.flatnonzero(bad_dom.to_numpy(zero_copy_only=False))
    hits.append((
        dom_rows, S.E_SOURCE_DOMAIN, "source",
        lambda k: [f"source {s!r} not in domain"
                   for s in pc.take(source, pa.array(dom_rows[k])).to_pylist()],
    ))

    # --- E13 / E12: doc_id null or empty, doc_id malformed — analog [E12];
    # both decided by the batch's doc_id_fields
    hits.append((ids.missing, S.E_DOCID_NULL, "doc_id", "doc_id is null or empty"))
    hits.append((
        ids.malformed, S.E_DOCID_FORMAT, "doc_id",
        lambda k: [f"doc_id {d!r} does not match {S.DOC_ID_RE}"
                   for d in batch["doc_id"].take(pa.array(ids.malformed[k])).to_pylist()],
    ))
    return hits
