"""Sequence-grammar (FSM-analog) checks over the tokens list.

The reference validates the word-sequence grammar of each payload with an
FSM (ItsPayloadFsmContinuous, its_payload_fsm_cont.rs:24-81,111-298):
IHW must open, TDT(packet_done) must close, DDW0 only at HBF end. The
tokenized-sequence analog is the structural grammar of a training row:

  E30: first token must be BOS      (IHW-opens-payload analog)
  E50: last token must be EOS       (TDT-packet_done-closes analog)
  E60: PAD tokens may appear only as a contiguous tail
       (DDW0-only-at-end analog)

The FSM is row-local (each row is one "payload"), so the whole grammar is
evaluated VECTORIZED over the batch, on the token layout the validate
stage derives once per batch (``schema.token_rows``): first/last-token
gathers via the row starts, and the pad rule via the pad→non-pad steps
of the flat token array (one bool compare, then work on the pad
positions only), each mapped to its row with one searchsorted over the
row starts — never a Python loop over rows, never a per-token Python FSM
step. Only the rows that break a rule are visited one by one, to build
their messages.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pyarrow as pa

from fastpasta_ray import schema as S


@dataclass(frozen=True)
class GrammarConfig:
    bos_id: int | None = None   # None disables the corresponding rule
    eos_id: int | None = None
    pad_id: int | None = None


def run_grammar_checks(batch: pa.Table, toks: S.TokenRows, g: GrammarConfig) -> pa.Table:
    """Vectorized grammar pass over one batch, whose ``schema.token_rows``
    is ``toks``; returns VIOLATIONS_SCHEMA rows."""
    if g.bos_id is None and g.eos_id is None and g.pad_id is None:
        return S.VIOLATIONS_SCHEMA.empty_table()
    flat, starts, lens, _ = toks
    nonempty = lens > 0  # a null row has length 0
    hits: list[tuple] = []  # (rows, code, column, details) per rule

    # clipped gather indices: rows masked out by `nonempty` (null/empty,
    # possibly trailing) may have start == len(flat); the clip keeps the
    # gather in bounds and np.where discards the garbage lane
    safe_hi = max(len(flat) - 1, 0)
    if g.bos_id is not None and nonempty.any():
        first = np.where(nonempty, flat[np.minimum(starts, safe_hi)], g.bos_id)
        bad = np.flatnonzero(first != g.bos_id)
        hits.append((
            bad, S.E_GRAMMAR_BOS, "tokens",
            [
                f"first token {int(first[r])} != BOS {g.bos_id}"
                f" ctx [{S.token_excerpt(flat, starts[r], starts[r] + lens[r], starts[r])}]"
                for r in bad
            ],
        ))
    if g.eos_id is not None and nonempty.any():
        last_idx = np.clip(starts + lens - 1, 0, safe_hi)
        last = np.where(nonempty, flat[last_idx], g.eos_id)
        bad = np.flatnonzero(last != g.eos_id)
        hits.append((
            bad, S.E_GRAMMAR_EOS, "tokens",
            [
                f"last token {int(last[r])} != EOS {g.eos_id}"
                f" ctx [{S.token_excerpt(flat, starts[r], starts[r] + lens[r], starts[r] + lens[r] - 1)}]"
                for r in bad
            ],
        ))
    if g.pad_id is not None and len(flat):
        pads = np.flatnonzero(flat == g.pad_id)
        # a pad BEFORE a non-pad token of its row is an interior pad, and
        # then some pad is directly followed by a non-pad in that row: find
        # those pad→non-pad steps, keep the ones inside one row
        nxt = np.minimum(pads + 1, len(flat) - 1)
        step = pads[(pads + 1 < len(flat)) & (flat[nxt] != g.pad_id)]
        if len(step):
            vrows = np.flatnonzero(nonempty)
            owner = vrows[np.searchsorted(starts[vrows], step, side="right") - 1]
            inside = step + 1 < starts[owner] + lens[owner]
            bad = np.unique(owner[inside])
            # each bad row's first pad (pads is sorted), for the message
            fp = pads[np.searchsorted(pads, starts[bad])] - starts[bad]
            hits.append((
                bad, S.E_GRAMMAR_PAD, "tokens",
                [
                    f"pad token {g.pad_id} at interior index {int(i)}"
                    f" ctx [{S.token_excerpt(flat, starts[r], starts[r] + lens[r], starts[r] + i)}]"
                    for r, i in zip(bad, fp)
                ],
            ))
    return S.batch_violations(batch, *S.rule_rows(hits))
