"""Running (stateful, order-dependent) checks within one partition.

Analog of RdhCruRunningChecker (rdh_running.rs:38-184): state carried across
records in file order, per key. Our contract (documented per SURVEY.md §4):
order is meaningful *within a partition file*, not globally — exactly the
reference's per-link ordering assumption. The validate stage processes each
file sequentially in one task, so the state is plain Python carried across
Arrow batches; the check itself is vectorized inside each batch.

Check E11: the trailing 8-digit doc index of doc_id must be strictly
increasing within a partition (analog of the pages_counter sequence check
[E11], rdh_running.rs:83-121).

Exact-stride mode (``expected_stride``) mirrors the reference's TDH
trigger-period family with its full E44x sub-taxonomy (tdh.rs:60-206,
cdp_running.rs:342) mapped onto the doc-index stream:

  E440  stride != expected, FRESH (previous interval was clean)
  E441  stride mismatch CONTINUATION (previous interval also mismatched)
  E442  doc index repeated (stride 0)
  E443  doc index went backwards (raw decrease that is not the expected
        wrap phase)
  E444  the doc_id's embedded partition ordinal (the 4-digit middle group)
        changed mid-partition — the set-once orbit-vs-RDH analog; checked
        in BOTH modes (monotonic and exact-stride)
  E445  cross-field desync: the doc-index advance disagrees with the
        row_index advance × stride (analog of [E445] "TDH trigger_bc !=
        RDH bc", tdh.rs:157, asserted cdp_running.rs:620 — two per-record
        position encodings must agree). Only checkable in FILTERED
        (stride_multiples) mode: unfiltered streams have row-gap 1, where
        the condition is identical to E440 and adds no signal; a filtered
        stream's interval check only proves "a multiple of stride", and
        E445 catches the WRONG multiple (doc index vs reader position
        desync). Per-interval, no anchor — a single glitch fires once.

"E44" works as a family prefix with the error-code filter's prefix
semantics (--codes E44 enables all of E440..E445). The checks read the
``(rows, ordinal, index)`` of the batch's one doc_id parse
(``schema.doc_id_fields``). Rows whose doc_id does not end in
``/dddd/dddddddd`` are skipped (E12/E13 flag them); a row whose prefix
alone is malformed still takes part, so it can get E12 and E11 both.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fastpasta_ray import schema as S
from fastpasta_ray.sketches import one_chunk


class RunningState:
    """Per-partition running state (one instance per input file).

    ``expected_stride``: the R4 EXACT analog of the reference's
    user-specified trigger period check (tdh.rs:60-206, [E440..E445]):
    each valid doc index must advance by exactly ``stride`` modulo
    ``index_wrap`` (the reference wraps the bunch counter at MAX_BC=3563;
    the 8-digit doc index wraps at 10^8). None disables the exact check,
    leaving only monotonicity — the `check sanity` vs period-configured
    `check all` distinction."""

    __slots__ = ("last_idx", "expected_stride", "index_wrap",
                 "last_interval_bad", "first_ordinal", "stride_multiples",
                 "last_row_index")

    INDEX_WRAP = 100_000_000  # 8-digit doc index domain

    def __init__(
        self,
        expected_stride: int | None = None,
        index_wrap: int | None = None,
        stride_multiples: bool = False,
    ):
        self.last_idx: int | None = None
        self.expected_stride = expected_stride
        self.index_wrap = index_wrap or self.INDEX_WRAP
        # filtered-stream mode (--filter-sources + --expect-stride): the
        # doc-index stride is PARTITION-global, so a source-filtered view
        # legitimately skips rows — each skipped row advances the index by
        # exactly `stride`, so the surviving intervals must be non-zero
        # MULTIPLES of the stride. Exact equality would flag every gap the
        # filter itself created (code-review r3); repeats (delta 0) and
        # non-multiple gaps remain genuine violations with full E44x power.
        self.stride_multiples = stride_multiples
        # carried across batches: was the last checked interval a period
        # mismatch (E440/E441 fresh-vs-continuation classification)?
        self.last_interval_bad = False
        # last valid row's file-global row_index (E445 cross-field carry)
        self.last_row_index: int | None = None
        # set-once partition ordinal (E444): first valid row's value
        self.first_ordinal: int | None = None

    def check_batch(self, batch: pa.Table, ids: S.DocIds) -> S.Hits:
        """Vectorized order/stride/ordinal checks over one ordered batch,
        whose ``schema.doc_id_fields`` is ``ids``; carries the last seen doc
        index, the last interval's verdict and the set-once partition
        ordinal across batches. Returns the batch's hits, rule by rule
        (``schema.Hits``)."""
        hits = S.Hits()
        # the partition ordinal + trailing index of the rows that have them
        vrows, ords, seq = ids.rows, ids.ordinal, ids.index
        if len(vrows) == 0:
            return hits
        prev = np.empty_like(seq)
        prev[1:] = seq[:-1]
        have_prev = self.last_idx is not None
        prev[0] = self.last_idx if have_prev else np.iinfo(np.int64).min

        # --- E444: set-once partition ordinal (orbit analog) ---------------
        if self.first_ordinal is None:
            self.first_ordinal = int(ords[0])
        w444 = np.flatnonzero(ords != self.first_ordinal)
        hits.append((
            vrows[w444], S.E_PART_ORDINAL, "doc_id",
            lambda k: [f"doc_id partition ordinal {int(o)} != partition's first {self.first_ordinal}"
                       for o in ords[w444[k]]],
        ))

        if self.expected_stride is not None:
            # exact-period mode: (cur - prev) mod wrap == stride; the first
            # valid row of the partition has no predecessor interval
            stride = self.expected_stride
            delta = np.mod(seq - prev, self.index_wrap)
            if self.stride_multiples and stride > 0:
                # a filtered gap of k skipped rows reads delta = k·stride,
                # or k·stride − wrap when it crosses the index wrap — when
                # stride ∤ wrap that residue is (−wrap) mod stride, not 0
                # (ADVICE r3). Accept both; gaps spanning ≥2 full wraps
                # (> 10^8 skipped rows) would still read as violations —
                # documented limitation.
                r = np.mod(delta, stride)
                ok = (r == 0) | (r == (-self.index_wrap) % stride)
                bad = (delta == 0) | ~ok
            else:
                bad = delta != stride
            no_interval = np.zeros(len(seq), dtype=bool)
            if not have_prev:
                bad[0] = False
                no_interval[0] = True
            # classification lanes (priority: repeat > decrease > period)
            rep = bad & (delta == 0)
            dec = bad & (seq < prev) & ~rep & ~no_interval
            prev_bad = np.empty(len(seq), dtype=bool)
            prev_bad[1:] = bad[:-1]
            prev_bad[0] = self.last_interval_bad if have_prev else False
            per = bad & ~rep & ~dec
            cont = per & prev_bad
            fresh = per & ~prev_bad
            self.last_interval_bad = bool(bad[-1])
            expect_str = (
                f"a multiple of expected {stride} (filtered stream)"
                if self.stride_multiples
                else f"expected {stride}"
            )
            for mask, code, fmt in (
                (
                    fresh,
                    S.E_PERIOD,
                    lambda c, p, d: f"doc index stride {d} != {expect_str} ({c} after {p})",
                ),
                (
                    cont,
                    S.E_PERIOD_CONT,
                    lambda c, p, d: (
                        f"doc index stride {d} != {expect_str} "
                        f"({c} after {p}; continuation of previous mismatch)"
                    ),
                ),
                (
                    rep,
                    S.E_INDEX_REPEAT,
                    lambda c, p, d: f"doc index {c} repeated (stride 0, expected {stride})",
                ),
                (
                    dec,
                    S.E_INDEX_DECREASE,
                    lambda c, p, d: f"doc index decreased: {c} after {p} (expected stride {stride})",
                ),
            ):
                w = np.flatnonzero(mask)
                hits.append((
                    vrows[w], code, "doc_id",
                    lambda k, w=w, fmt=fmt: [fmt(int(c), int(p), int(d)) for c, p, d in
                                             zip(seq[w[k]], prev[w[k]], delta[w[k]])],
                ))
            # --- E445: doc-index advance vs row_index advance (filtered
            # mode only — see module docstring). Gated on intervals the
            # E440-E443 lanes did NOT flag (no double-reporting).
            if self.stride_multiples and stride > 0:
                row_np = one_chunk(batch["row_index"]).to_numpy(
                    zero_copy_only=False
                ).astype(np.int64)[vrows]
                prev_row = np.empty_like(row_np)
                prev_row[1:] = row_np[:-1]
                prev_row[0] = (
                    self.last_row_index
                    if self.last_row_index is not None
                    else row_np[0]
                )
                row_gap = row_np - prev_row
                exp_delta = np.mod(row_gap * stride, self.index_wrap)
                desync = ~bad & ~no_interval & (delta != exp_delta)
                w445 = np.flatnonzero(desync)
                hits.append((
                    vrows[w445], S.E_INDEX_ROW_DESYNC, "doc_id",
                    lambda k: [
                        f"doc index {int(c)} after {int(p)}: stride "
                        f"{int(d)} != row gap {int(g)} x expected stride {stride}"
                        for c, p, d, g in zip(seq[w445[k]], prev[w445[k]],
                                              delta[w445[k]], row_gap[w445[k]])
                    ],
                ))
                self.last_row_index = int(row_np[-1])
        else:
            w11 = np.flatnonzero(seq <= prev)
            hits.append((
                vrows[w11], S.E_ORDER, "doc_id",
                lambda k: [f"doc index not increasing: {int(c)} after {int(p)}"
                           for c, p in zip(seq[w11[k]], prev[w11[k]])],
            ))
        # carry the IMMEDIATE predecessor (last valid index), not the max:
        # the in-batch comparison is each-row-vs-previous-row, and the
        # cross-batch carry must match or results would depend on where
        # batch boundaries fall (caught by hypothesis)
        self.last_idx = int(seq[-1])
        return hits
