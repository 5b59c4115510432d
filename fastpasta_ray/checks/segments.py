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
    ``(violations, newly_fatal_headers)`` — the caller carries the fatal
    headers across batches of the same partition (the reference's
    per-validator ``fatal_lanes`` list, readout_frame.rs:40-50).

    ``allowed_orders``: tuple of allowed segment-header sequences (each a
    tuple of token ids). When set, every row with ≥1 segment must have a
    header sequence exactly equal to one of them (chip_orders_ob analog —
    the reference ships [[0..6],[8..14]] as its OB defaults).

    APE lane-status ladder analog (lane_alpide_frame_analyzer.rs:73-177):
    ``warning_sentinels`` / ``fatal_sentinels`` are reserved token ids
    that, seen anywhere inside a segment, set that segment's status.
    WARNING segments are reported (E77) but keep participating in every
    check — the reference only log::warn's them. A FATAL segment is
    reported (E78) and its HEADER joins the running fatal set: from the
    row where it goes fatal onward (row-exact within the batch, like the
    reference applying new fatal lanes to the very frame that reported
    them, readout_frame.rs:106-118),
      - the E73 band drops by the running fatal count — the
        ``expect_lane_count -= fatal_lanes.len()`` analog
        (alpide_readout_frame.rs:65-68); observed still counts every
        segment, so the transition row flags exactly like the reference;
      - fatal-headed segments are excluded from E74 header equality (a
        fatal lane never reaches ``validated_lanes``, alpide.rs:51-58);
      - E76 matches the row's NON-fatal header sequence against each
        allowed order with fatal headers REMOVED
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

    # an EMPTY segment exists where a delimiter is immediately preceded by
    # a delimiter (within the same row) or sits at the row start/end
    empty_after = is_delim & (prev_is_delim & ~at_row_start)
    at_start_delim = is_delim & at_row_start
    next_is_delim = np.r_[is_delim[1:], True]
    at_row_end = np.zeros(len(vals), dtype=bool)
    if n:
        at_row_end[row_ends[lens > 0] - 1] = True
    trailing_delim = is_delim & at_row_end
    empty_seg = empty_after | at_start_delim | trailing_delim
    empty_per_row = np.bincount(row_of[empty_seg], minlength=n)

    hits: list[tuple] = []  # (rows, code, column, details) per rule

    # --- per-segment header + status (APE ladder) --------------------------
    heads = vals[seg_start] if seg_start.any() else np.zeros(0, dtype=np.int64)
    hrow = row_of[seg_start] if seg_start.any() else np.zeros(0, dtype=np.int64)
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

    # running fatal set, row-exact "eras": the set grows at the first row
    # where each new header reports fatal and applies FROM that row on —
    # including the reporting row itself, exactly like the reference adding
    # new fatal lanes before checking the same frame
    # (readout_frame.rs:106-118). era_of[r] indexes the fatal set in force
    # at row r; the number of eras is 1 + #distinct onset rows (anomaly-
    # rare — the zero-fatal hot path below stays fully vectorized).
    prior = np.array(sorted(fatal_heads), dtype=np.int64) if fatal_heads else np.zeros(0, dtype=np.int64)
    new_fatal: list[int] = []
    if seg_fatal.any():
        fh, fr = heads[seg_fatal], hrow[seg_fatal]
        fresh = ~np.isin(fh, prior)
        uh, first_idx = np.unique(fh[fresh], return_index=True)
        onset = fr[fresh][first_idx]
        occ = np.argsort(onset, kind="stable")
        uh, onset = uh[occ], onset[occ]
        new_fatal = [int(h) for h in uh]
    else:
        uh = np.zeros(0, dtype=np.int64)
        onset = np.zeros(0, dtype=np.int64)
    bounds = np.unique(onset)
    era_of = np.searchsorted(bounds, np.arange(n), side="right")
    era_sets = [prior]
    for b in bounds:
        era_sets.append(
            np.unique(np.concatenate([prior, uh[onset <= b]]))
        )
    era_sizes = np.array([len(s) for s in era_sets], dtype=np.int64)
    nf_per_row = era_sizes[era_of]
    # per-segment exclusion: header in the fatal set in force at its row
    if n_seg and (len(prior) or len(uh)):
        seg_excl = np.zeros(n_seg, dtype=bool)
        seg_era = era_of[hrow]
        for e, fs in enumerate(era_sets):
            if len(fs):
                m = seg_era == e
                seg_excl[m] = np.isin(heads[m], fs)
    else:
        seg_excl = np.zeros(n_seg, dtype=bool)

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
    if seg_fatal.any():
        fatal_per_row = np.bincount(hrow[seg_fatal], minlength=n)
        rows78 = np.flatnonzero(fatal_per_row > 0)
        hits.append((
            rows78, S.E_SEG_FATAL, "tokens",
            [
                f"{int(fatal_per_row[r])} segment(s) in FATAL status; "
                f"headers {sorted(int(h) for h in np.unique(heads[seg_fatal & (hrow == r)]))} "
                "excluded from lane checks from this row on"
                for r in rows78
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
            f"segment count {int(seg_per_row[r])} outside "
            f"[{min_segments}, {max_segments}]"
            + (
                f" less {int(nf_per_row[r])} fatal segment(s)"
                if nf_per_row[r]
                else ""
            )
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
    live = ~seg_excl
    heads_nf = heads[live]
    hrow_nf = hrow[live]
    live_per_row = np.bincount(hrow_nf, minlength=n) if len(hrow_nf) else np.zeros(n, dtype=np.int64)

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
    # analog + the fatal-lane grouping adjustment). Vectorized per
    # (era, allowed order): rows in one era share a fatal set, so the
    # filtered order is computed once per era and compared blockwise.
    if allowed_orders and len(heads_nf):
        hoff = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(live_per_row, out=hoff[1:])
        candidate = has_tokens & (live_per_row > 0)
        matched = np.zeros(n, dtype=bool)
        for e, fs in enumerate(era_sets):
            era_rows = era_of == e
            for order in allowed_orders:
                order_np = np.asarray(order, dtype=np.int64)
                if len(fs):
                    order_np = order_np[~np.isin(order_np, fs)]
                L = len(order_np)
                rows_l = np.flatnonzero(era_rows & candidate & (live_per_row == L))
                if not len(rows_l):
                    continue
                gather = (hoff[rows_l][:, None] + np.arange(L)[None, :]).reshape(-1)
                block = heads_nf[gather].reshape(len(rows_l), L)
                matched[rows_l] |= (block == order_np[None, :]).all(axis=1)
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
