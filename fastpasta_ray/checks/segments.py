"""Nested segment decoding within token sequences — the ALPIDE deep-decode
analog (A1/A2, SURVEY.md §2.5).

The reference decodes each lane's byte stream into chips inside a readout
frame and checks: chip bunch-counters identical within the frame
(lane_alpide_frame_analyzer.rs:180-320 [E9003], cross-lane wrapper
alpide.rs:19-122 [E74]/[E75]), chip count per lane
([E9004]/check_frame_lanes_valid [E72]/[E73]), and chip-id ordering
([E9005]).

Analog over the `tokens` payload: a sequence is a frame; segments are the
lanes/chips, delimited by a configurable ``segment_delim_id`` token:

  E73  segment count outside [min_segments, max_segments]  (chip count)
  E74  segment headers (first token of each segment) not all equal
       within a row                                        (BC equality)
  E75  empty segment (two consecutive delimiters)          (empty frame)
  E76  segment header sequence not among the configured allowed
       orderings — the ``chip_orders_ob`` custom-check analog
       (custom_checks_cfg.rs:16-24, checks applied at
       lane_alpide_frame_analyzer.rs:180-320)

Fully vectorized across the batch: one delimiter scan and one
segment-start derivation over the token layout the validate stage derives
once per batch (``schema.token_rows``) — no per-row Python. Row-local
(fits map_batches, like the reference's per-frame analysis inside one
validator thread).

The running fatal set (the reference's per-link ``fatal_lanes``,
readout_frame.rs:40-50) is one fact per header, its ONSET row: a header
is fatal at row r iff it was fatal before the batch, or it first reports
fatal at a row <= r — the reporting row included, as the reference adds
new fatal lanes before it checks the frame that reported them
(readout_frame.rs:106-118). The per-header onsets are the batch's whole
fatal-set summary; the checks cost O(n + #segments · log #onsets) plus
O(#rows · order length) per allowed order, however many headers go fatal.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fastpasta_ray import schema as S


def run_segment_checks(
    batch: pa.Table,
    toks: S.TokenRows,
    *,
    delim_id: int,
    min_segments: int | None = None,
    max_segments: int | None = None,
    allowed_orders: tuple | None = None,
    warning_sentinels: tuple | None = None,
    fatal_sentinels: tuple | None = None,
    fatal_heads: frozenset | None = None,
) -> tuple[pa.Table, list[int]]:
    """Segment-structure checks over one SEQUENCES_POS batch, whose
    ``schema.token_rows`` is ``toks``. Returns
    ``(violations, newly_fatal_headers)``, the new headers in onset order
    — the caller carries the fatal headers across batches of the same
    partition (the reference's per-validator ``fatal_lanes`` list,
    readout_frame.rs:40-50).

    ``allowed_orders``: tuple of allowed segment-header sequences (each a
    tuple of token ids). When set, every row with ≥1 segment must have a
    header sequence exactly equal to one of them (chip_orders_ob analog —
    the reference ships [[0..6],[8..14]] as its OB defaults).

    APE lane-status ladder analog (lane_alpide_frame_analyzer.rs:73-177):
    ``warning_sentinels`` / ``fatal_sentinels`` are reserved token ids
    that, seen anywhere inside a segment, set that segment's status.
    WARNING segments are reported (E77) but keep participating in every
    check — the reference only log::warn's them. A FATAL segment is
    reported (E78) and its HEADER joins the running fatal set at its
    onset row, the first row where it reports fatal: a header is fatal at
    row r iff it is in ``fatal_heads`` or its onset is <= r. At every row
    where a header is fatal,
      - the E73 band drops by the running fatal count — the
        ``expect_lane_count -= fatal_lanes.len()`` analog
        (alpide_readout_frame.rs:65-68); observed still counts every
        segment, so the onset row flags exactly like the reference;
      - its segments are excluded from E74 header equality (a fatal lane
        never reaches ``validated_lanes``, alpide.rs:51-58);
      - E76 matches the row's NON-fatal header sequence against each
        allowed order with that row's fatal headers REMOVED
        (validate_inner_lane_groupings' grouping adjustment,
        alpide_readout_frame.rs:96-129).

    ``fatal_heads``: headers already fatal from earlier batches of this
    partition."""
    n = batch.num_rows
    vals, row_starts, lens, _ = toks
    row_ends = row_starts + lens
    row_of = np.repeat(np.arange(n, dtype=np.int64), lens)

    is_delim = vals == delim_id
    # a segment starts at a non-delim token that is at a row start or
    # right after a delimiter
    prev_is_delim = np.r_[True, is_delim[:-1]]
    at_row_start = np.zeros(len(vals), dtype=bool)
    at_row_start[row_starts[lens > 0]] = True
    seg_start = (~is_delim) & (prev_is_delim | at_row_start)
    seg_per_row = np.bincount(row_of[seg_start], minlength=n)

    # an EMPTY segment: each delimiter at a row's start, at its end, or
    # right after another delimiter counts once
    at_row_end = np.zeros(len(vals), dtype=bool)
    at_row_end[row_ends[lens > 0] - 1] = True
    empty_seg = is_delim & (prev_is_delim | at_row_start | at_row_end)
    empty_per_row = np.bincount(row_of[empty_seg], minlength=n)

    hits: list[tuple] = []  # (rows, code, column, details) per rule

    # --- per-segment header + status (APE ladder) --------------------------
    heads, hrow = vals[seg_start], row_of[seg_start]  # hrow is sorted
    n_seg = len(heads)
    seg_warn = np.zeros(n_seg, dtype=bool)
    seg_fatal = np.zeros(n_seg, dtype=bool)
    if n_seg and (warning_sentinels or fatal_sentinels):
        # segment index of every flat position (delims carry stale ids —
        # masked out; any non-delim token is ≥ its row's first seg start)
        seg_of = np.cumsum(seg_start) - 1
        in_seg = (~is_delim) & (seg_of >= 0)
        if warning_sentinels:
            hit = in_seg & np.isin(vals, np.asarray(warning_sentinels))
            seg_warn[seg_of[hit]] = True
        if fatal_sentinels:
            hit = in_seg & np.isin(vals, np.asarray(fatal_sentinels))
            seg_fatal[seg_of[hit]] = True
        seg_warn &= ~seg_fatal  # FATAL outranks WARNING (the ladder)

    # the running fatal set as onsets: the fresh fatal headers ``uh``
    # (sorted) and, aligned, the first row where each reports fatal
    prior = np.array(sorted(fatal_heads or ()), dtype=np.int64)
    fh, fr = heads[seg_fatal], hrow[seg_fatal]
    uh, first = np.unique(fh, return_index=True)
    onset = fr[first]
    fresh = ~np.isin(uh, prior)
    uh, onset = uh[fresh], onset[fresh]
    new_fatal = [int(h) for h in uh[np.argsort(onset, kind="stable")]]

    def onset_of(h: np.ndarray) -> np.ndarray:
        """The row from which each header in ``h`` is fatal: -1 for a
        prior header, n for one that is not fatal in this batch."""
        at = np.full(len(h), n, dtype=np.int64)
        if len(uh):
            i = np.minimum(np.searchsorted(uh, h), len(uh) - 1)
            hit = uh[i] == h
            at[hit] = onset[i[hit]]
        if len(prior):
            at[np.isin(h, prior)] = -1
        return at

    # fatal count per row: the prior set plus the onsets at or before it
    nf_per_row = len(prior) + np.searchsorted(np.sort(onset), np.arange(n), side="right")

    # E77/E78: segment status reports (one row per affected sequence row)
    if seg_warn.any():
        warn_per_row = np.bincount(hrow[seg_warn], minlength=n)
        rows77 = np.flatnonzero(warn_per_row > 0)
        hits.append((
            rows77, S.E_SEG_WARN, "tokens",
            [
                f"{int(warn_per_row[r])} segment(s) in WARNING status "
                "(warning sentinel seen)"
                for r in rows77
            ],
        ))
    if len(fh):
        # fr is sorted, so each reporting row's fatal headers are one slice
        rows78, lo, cnt = np.unique(fr, return_index=True, return_counts=True)
        hits.append((
            rows78, S.E_SEG_FATAL, "tokens",
            [
                f"{int(c)} segment(s) in FATAL status; "
                f"headers {sorted(set(fh[a : a + c].tolist()))} "
                "excluded from lane checks from this row on"
                for a, c in zip(lo, cnt)
            ],
        ))

    # E73: segment count outside the configured band (rows with tokens
    # only). Observed counts EVERY segment; the band drops by the running
    # fatal count — the expect_lane_count -= fatal_lanes.len() analog
    # (alpide_readout_frame.rs:65-68), so the onset row flags exactly like
    # the reference.
    has_tokens = lens > 0
    bad_count = np.zeros(n, dtype=bool)
    if min_segments is not None:
        bad_count |= has_tokens & (seg_per_row < min_segments - nf_per_row)
    if max_segments is not None:
        bad_count |= has_tokens & (seg_per_row > max_segments - nf_per_row)
    rows73 = np.flatnonzero(bad_count)
    hits.append((
        rows73, S.E_SEG_COUNT, "tokens",
        [
            f"segment count {int(seg_per_row[r])} outside [{min_segments}, {max_segments}]"
            + (f" less {int(nf_per_row[r])} fatal segment(s)" if nf_per_row[r] else "")
            for r in rows73
        ],
    ))

    # E75: empty segments
    rows75 = np.flatnonzero(empty_per_row > 0)
    hits.append((
        rows75, S.E_SEG_EMPTY, "tokens",
        [f"{int(empty_per_row[r])} empty segment(s)" for r in rows75],
    ))

    # fatal-headed segments drop out of E74/E76 (a fatal lane never reaches
    # validated_lanes, alpide.rs:51-58; groupings adjust around fatal lanes,
    # alpide_readout_frame.rs:96-129)
    live = onset_of(heads) > hrow
    heads_nf = heads[live]
    hrow_nf = hrow[live]
    live_per_row = np.bincount(hrow_nf, minlength=n)

    # E74: all NON-fatal segment headers within a row must be equal (BC
    # equality)
    if len(heads_nf):
        hmin = np.full(n, np.iinfo(np.int64).max, dtype=np.int64)
        hmax = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        np.minimum.at(hmin, hrow_nf, heads_nf)
        np.maximum.at(hmax, hrow_nf, heads_nf)
        rows74 = np.flatnonzero((live_per_row > 1) & (hmin != hmax))
        hits.append((
            rows74, S.E_SEG_HEADER, "tokens",
            [
                f"segment headers differ: min {int(hmin[r])} != max {int(hmax[r])}"
                for r in rows74
            ],
        ))

    # E76: the NON-fatal header sequence must be one of the allowed
    # orderings with that row's fatal headers removed (chip_orders_ob
    # analog + the fatal-lane grouping adjustment). Per allowed order:
    # prior-fatal entries go from every row; the rows whose live length
    # the order can still match are one slice of the candidates sorted by
    # live length; and only an order with an entry that goes fatal in
    # this batch needs a per-row (rows × order length) keep-mask.
    if allowed_orders and len(heads_nf):
        hoff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(live_per_row, out=hoff[1:])
        candidate = has_tokens & (live_per_row > 0)
        by_len = np.flatnonzero(candidate)
        by_len = by_len[np.argsort(live_per_row[by_len], kind="stable")]
        len_sorted = live_per_row[by_len]
        matched = np.zeros(n, dtype=bool)
        for order in allowed_orders:
            order_np = np.asarray(order, dtype=np.int64)
            at = onset_of(order_np)
            order_np, at = order_np[at >= 0], at[at >= 0]
            L = len(order_np)
            moving = at < n  # goes fatal at some row of this batch
            rows_l = by_len[
                np.searchsorted(len_sorted, L - int(moving.sum())) :
                np.searchsorted(len_sorted, L, side="right")
            ]
            if not len(rows_l):
                continue
            if moving.any():
                keep = at[None, :] > rows_l[:, None]
                fits = keep.sum(axis=1) == live_per_row[rows_l]
                rows_l, keep = rows_l[fits], keep[fits]
                # the live header each kept entry must equal
                col = np.maximum(np.cumsum(keep, axis=1) - 1, 0)
                eq = (heads_nf[hoff[rows_l][:, None] + col] == order_np) | ~keep
            else:
                eq = heads_nf[hoff[rows_l][:, None] + np.arange(L)] == order_np
            matched[rows_l[eq.all(axis=1)]] = True
        rows76 = np.flatnonzero(candidate & ~matched)
        hits.append((
            rows76, S.E_SEG_ORDER, "tokens",
            [
                "segment header order "
                + str([int(h) for h in heads_nf[hoff[r] : hoff[r + 1]]])
                + " not in allowed orderings"
                for r in rows76
            ],
        ))

    return S.batch_violations(batch, *S.rule_rows(hits)), new_fatal
